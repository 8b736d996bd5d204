package runner

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/armlite"
	"repro/internal/asm"
	"repro/internal/cpu"
	"repro/internal/dsa"
	"repro/internal/workloads"
)

// synth builds a synthetic workload around one assembly kernel.
func synth(t *testing.T, name, src string, setup func(*cpu.Machine), check func(*cpu.Machine) error) *workloads.Workload {
	t.Helper()
	prog, err := asm.Parse(name, src)
	if err != nil {
		t.Fatal(err)
	}
	if setup == nil {
		setup = func(*cpu.Machine) {}
	}
	if check == nil {
		check = func(*cpu.Machine) error { return nil }
	}
	return &workloads.Workload{
		Name:   name,
		Scalar: func() *armlite.Program { return prog },
		Setup:  setup,
		Check:  check,
	}
}

const spinSrc = "x: b x"

// busySrc retires ~300k instructions then halts — long enough that
// concurrent jobs overlap, short enough for tight test budgets.
const busySrc = `
        mov   r4, #100000
loop:   subs  r4, r4, #1
        bne   loop
        halt`

func smallCPU() cpu.Config {
	c := cpu.DefaultConfig()
	c.MemBytes = 1 << 20
	return c
}

func TestPanicIsolationAlwaysPanics(t *testing.T) {
	w := synth(t, "crasher", "halt", func(*cpu.Machine) { panic("synthetic setup crash") }, nil)
	rep := Run(context.Background(), []Job{{Workload: w, CPU: smallCPU(), DSA: dsa.DefaultConfig()}},
		Options{Workers: 1, Retries: 1})
	r := rep.Results[0]
	if r.Status != StatusFailed {
		t.Fatalf("status = %s, want failed", r.Status)
	}
	if r.Cause != "panic" {
		t.Errorf("cause = %q, want panic", r.Cause)
	}
	// 2 DSA attempts + 1 degraded rerun, all panicking, none escaping.
	if r.Attempts != 3 {
		t.Errorf("attempts = %d, want 3", r.Attempts)
	}
	if r.Err == nil {
		t.Error("failed result carries no error")
	}
}

func TestPanicRetryRecovers(t *testing.T) {
	var once atomic.Bool
	w := synth(t, "flaky", "halt", func(*cpu.Machine) {
		if once.CompareAndSwap(false, true) {
			panic("first attempt only")
		}
	}, nil)
	rep := Run(context.Background(), []Job{{Workload: w, CPU: smallCPU(), DSA: dsa.DefaultConfig()}},
		Options{Workers: 1, Retries: 2})
	r := rep.Results[0]
	if r.Status != StatusOK {
		t.Fatalf("status = %s (cause %q), want ok after retry", r.Status, r.Cause)
	}
	if r.Attempts != 2 {
		t.Errorf("attempts = %d, want 2", r.Attempts)
	}
	if rep.Retries != 1 {
		t.Errorf("report retries = %d, want 1", rep.Retries)
	}
}

func TestDeadlineFailsJob(t *testing.T) {
	w := synth(t, "spin", spinSrc, nil, nil)
	start := time.Now()
	rep := Run(context.Background(),
		[]Job{{Workload: w, CPU: smallCPU(), DSA: dsa.DefaultConfig(), Timeout: 50 * time.Millisecond}},
		Options{Workers: 1})
	r := rep.Results[0]
	if r.Status != StatusFailed || r.Cause != "deadline" {
		t.Fatalf("status = %s cause = %q, want failed/deadline", r.Status, r.Cause)
	}
	// One DSA attempt plus the (also timing out) degraded rerun.
	if r.Attempts != 2 {
		t.Errorf("attempts = %d, want 2", r.Attempts)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Errorf("deadline job took %v; cancellation not reaching the step loop", el)
	}
}

func TestMaxStepsNotRetried(t *testing.T) {
	c := smallCPU()
	c.MaxSteps = 1000
	w := synth(t, "runaway", spinSrc, nil, nil)
	rep := Run(context.Background(), []Job{{Workload: w, CPU: c, DSA: dsa.DefaultConfig()}},
		Options{Workers: 1, Retries: 3})
	r := rep.Results[0]
	if r.Status != StatusFailed || r.Cause != "max-steps" {
		t.Fatalf("status = %s cause = %q, want failed/max-steps", r.Status, r.Cause)
	}
	// Deterministic wall: no retries, no degradation rerun.
	if r.Attempts != 1 {
		t.Errorf("attempts = %d, want 1", r.Attempts)
	}
}

func TestBatchCancelDrainsAllJobs(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	w := synth(t, "never", busySrc, nil, nil)
	jobs := []Job{
		{Name: "a", Workload: w, CPU: smallCPU(), DSA: dsa.DefaultConfig()},
		{Name: "b", Workload: w, CPU: smallCPU(), DSA: dsa.DefaultConfig()},
		{Name: "c", Workload: w, CPU: smallCPU(), DSA: dsa.DefaultConfig()},
	}
	rep := Run(ctx, jobs, Options{Workers: 2, Retries: 2})
	if len(rep.Results) != len(jobs) {
		t.Fatalf("lost jobs: %d results for %d jobs", len(rep.Results), len(jobs))
	}
	for _, r := range rep.Results {
		if r.Status != StatusFailed || r.Cause != "canceled" {
			t.Errorf("%s: status = %s cause = %q, want failed/canceled", r.Job, r.Status, r.Cause)
		}
	}
}

func TestMemBudgetSerializesOversubscribedJobs(t *testing.T) {
	var inFlight, peak int32
	var mu sync.Mutex
	enter := func(*cpu.Machine) {
		n := atomic.AddInt32(&inFlight, 1)
		mu.Lock()
		if n > peak {
			peak = n
		}
		mu.Unlock()
	}
	leave := func(*cpu.Machine) error {
		atomic.AddInt32(&inFlight, -1)
		return nil
	}
	var jobs []Job
	for i := 0; i < 4; i++ {
		jobs = append(jobs, Job{
			Name:     "busy",
			Workload: synth(t, "busy", busySrc, enter, leave),
			CPU:      smallCPU(), // 1 MiB image + 1 MiB overhead = 2 MiB
			DSA:      dsa.DefaultConfig(),
		})
	}
	// 3 MiB budget admits exactly one 2 MiB job at a time even with
	// four eager workers.
	rep := Run(context.Background(), jobs, Options{Workers: 4, MemBudgetBytes: 3 << 20})
	for _, r := range rep.Results {
		if r.Status != StatusOK {
			t.Fatalf("%s: %s (%q)", r.Job, r.Status, r.Cause)
		}
	}
	if peak != 1 {
		t.Errorf("peak in-flight = %d under a one-job budget, want 1", peak)
	}
}

func TestMemBudgetAdmitsOversizeJobAlone(t *testing.T) {
	w := synth(t, "big", "halt", nil, nil)
	c := cpu.DefaultConfig() // 16 MiB image > 4 MiB budget
	rep := Run(context.Background(), []Job{{Workload: w, CPU: c, DSA: dsa.DefaultConfig()}},
		Options{Workers: 2, MemBudgetBytes: 4 << 20})
	if r := rep.Results[0]; r.Status != StatusOK {
		t.Fatalf("oversize job: %s (%q), want ok (admitted alone)", r.Status, r.Cause)
	}
}

func TestDegradationSalvagesFaultedJob(t *testing.T) {
	// A truncated-range fault under the hard (non-fallback) oracle is a
	// guaranteed divergence error on any workload with takeovers; the
	// ladder must land on a degraded scalar result with the reference
	// memory image.
	w, err := workloads.ByName("rgb_gray")
	if err != nil {
		t.Fatal(err)
	}
	cfg := dsa.DefaultConfig()
	cfg.Fault = dsa.FaultConfig{Kind: dsa.FaultTruncateRange, EveryN: 1}
	cfg.Verify = dsa.VerifyConfig{Enabled: true} // hard mode: divergence is an error

	ref := Run(context.Background(),
		[]Job{{Name: "ref", Workload: w, CPU: cpu.DefaultConfig(), DSAOff: true}},
		Options{Workers: 1}).Results[0]
	if ref.Status != StatusOK {
		t.Fatalf("scalar reference: %s (%q)", ref.Status, ref.Cause)
	}

	rep := Run(context.Background(),
		[]Job{{Workload: w, CPU: cpu.DefaultConfig(), DSA: cfg}},
		Options{Workers: 1, Retries: 1, Backoff: time.Millisecond})
	r := rep.Results[0]
	if r.Status != StatusDegraded || !r.Degraded {
		t.Fatalf("status = %s (cause %q), want degraded", r.Status, r.Cause)
	}
	if r.Cause != "divergence" {
		t.Errorf("cause = %q, want divergence", r.Cause)
	}
	// 1 + Retries DSA attempts, then the salvage run.
	if r.Attempts != 3 {
		t.Errorf("attempts = %d, want 3", r.Attempts)
	}
	if r.MemSum != ref.MemSum {
		t.Errorf("degraded memory digest %#x != scalar reference %#x", r.MemSum, ref.MemSum)
	}
}

func TestMatrixOrderAndNames(t *testing.T) {
	w := synth(t, "w1", "halt", nil, nil)
	jobs := Matrix([]*workloads.Workload{w},
		map[string]dsa.Config{"extended": dsa.DefaultConfig(), "original": dsa.OriginalConfig()},
		cpu.Config{})
	if len(jobs) != 2 {
		t.Fatalf("len = %d, want 2", len(jobs))
	}
	if jobs[0].Name != "w1/extended" || jobs[1].Name != "w1/original" {
		t.Errorf("names = %q, %q; want deterministic workload/config order", jobs[0].Name, jobs[1].Name)
	}
	if jobs[0].CPU != cpu.DefaultConfig() {
		t.Error("zero cpu config not defaulted")
	}
}
