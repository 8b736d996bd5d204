package runner

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/cpu"
	"repro/internal/dsa"
)

// TestRetryResumeDegradeAttribution is the regression test for the
// ordering/attribution nit: a job that walks the full
// retry→resume→degrade ladder must keep (a) every failed attempt's
// classified cause in order, and (b) the resume note from a *failed*
// early attempt — both used to be dropped because only the successful
// attempt's outcome reached the terminal result.
func TestRetryResumeDegradeAttribution(t *testing.T) {
	job := snapshotTestJob(t)
	// Every DSA attempt dies on a hard oracle divergence (retryable);
	// only the scalar degradation rung can finish the job.
	job.DSA.Fault = dsa.FaultConfig{Kind: dsa.FaultCorruptCache, EveryN: 500}
	job.DSA.Verify = dsa.VerifyConfig{Enabled: true, Fallback: false}

	// Scalar reference: what the degraded rerun must reproduce.
	scalarJob := job
	scalarJob.DSAOff = true
	scalarRef := Run(context.Background(), []Job{scalarJob}, Options{Workers: 1}).Results[0]
	if scalarRef.Status != StatusOK {
		t.Fatalf("scalar reference: %+v", scalarRef)
	}

	// A corrupt pre-existing checkpoint makes attempt 1's resume fail
	// with an attributed restart-from-zero. The harness writes it with
	// the clean config (the faulted one cannot finish its sizing run);
	// the bit flip trips the CRC before any config comparison.
	dir := t.TempDir()
	path, _ := writeMidRunCheckpoint(t, snapshotTestJob(t), dir)
	if err := dsa.InjectSnapshotFault(path, dsa.SnapBitFlip); err != nil {
		t.Fatal(err)
	}

	job.Resume = true
	rep := Run(context.Background(), []Job{job}, Options{
		Workers:       1,
		Retries:       1,
		SnapshotDir:   dir,
		SnapshotEvery: 1000,
	})
	r := rep.Results[0]

	if r.Status != StatusDegraded || !r.Degraded {
		t.Fatalf("status = %s (cause %q, err %v), want degraded", r.Status, r.Cause, r.Err)
	}
	if r.Cause != "divergence" {
		t.Errorf("Cause = %q, want divergence (the DSA path's terminal cause)", r.Cause)
	}
	// Two DSA attempts failed, in order, before the scalar salvage.
	want := []string{"divergence", "divergence"}
	if len(r.AttemptCauses) != len(want) {
		t.Fatalf("AttemptCauses = %v, want %v", r.AttemptCauses, want)
	}
	for i := range want {
		if r.AttemptCauses[i] != want[i] {
			t.Errorf("AttemptCauses[%d] = %q, want %q", i, r.AttemptCauses[i], want[i])
		}
	}
	// The failed first attempt's resume trouble survives, attributed to
	// its attempt, ahead of anything later.
	if !strings.HasPrefix(r.ResumeNote, "attempt 1: restart-from-zero: snapshot-corrupt") {
		t.Errorf("ResumeNote = %q, want it to open with attempt 1's restart-from-zero", r.ResumeNote)
	}
	// Degraded memory must still equal the scalar reference.
	if r.MemSum != scalarRef.MemSum {
		t.Errorf("degraded mem digest %016x != scalar reference %016x", r.MemSum, scalarRef.MemSum)
	}
}

// TestPoolDrainAndResume drives the daemon's crash-recovery story at
// the runner level, for a DSA job and a DSA-off one: Drain stops a
// running job at a step boundary with a final checkpoint, and a fresh
// pool resumes it to the bit-identical result of an uninterrupted run.
func TestPoolDrainAndResume(t *testing.T) {
	forEachMode(t, func(t *testing.T, job Job) {
		ref := referenceResult(t, job)
		dir := t.TempDir()

		// Drain from inside the progress callback: it runs on the
		// attempt's own goroutine before stepping resumes, so the very
		// next tick observes the flag — the interruption is
		// deterministic, the job can never win a race to the finish
		// line.
		var p *Pool
		var mu sync.Mutex
		var samples []Progress
		opts := Options{
			Workers:       1,
			SnapshotDir:   dir,
			ProgressEvery: 1000,
			OnProgress: func(pr Progress) {
				mu.Lock()
				samples = append(samples, pr)
				mu.Unlock()
				if pr.Steps > 5000 {
					p.Drain()
				}
			},
		}

		p = NewPool(opts)
		r := p.Do(context.Background(), job)
		p.Close()

		if r.Status != StatusFailed || r.Cause != CauseDrained {
			t.Fatalf("drained job: status %s cause %q (err %v), want failed/%s", r.Status, r.Cause, r.Err, CauseDrained)
		}
		path := filepath.Join(dir, snapshotFileName(job.Name, 0))
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("drain left no checkpoint: %v", err)
		}

		// Progress samples must belong to this job, attempt 1, with
		// non-decreasing step counts.
		mu.Lock()
		if len(samples) == 0 {
			t.Fatal("no progress samples")
		}
		var lastSteps uint64
		for _, s := range samples {
			if s.Job != job.Name || s.Attempt != 1 || s.DSAOff != job.DSAOff {
				t.Fatalf("sample %+v, want job %q attempt 1 DSAOff %v", s, job.Name, job.DSAOff)
			}
			if s.Steps < lastSteps {
				t.Fatalf("progress steps went backwards: %d after %d", s.Steps, lastSteps)
			}
			lastSteps = s.Steps
		}
		mu.Unlock()

		// A fresh pool resumes the drained job bit-identically.
		resumed := job
		resumed.Resume = true
		p2 := NewPool(Options{Workers: 1, SnapshotDir: dir})
		defer p2.Close()
		r2 := p2.Do(context.Background(), resumed)
		if r2.Status != StatusOK {
			t.Fatalf("resumed job: %+v (err %v)", r2, r2.Err)
		}
		if r2.ResumedFromStep == 0 {
			t.Error("resumed job restarted from zero, want resume from the drain checkpoint")
		}
		if r2.MemSum != ref.MemSum || r2.Ticks != ref.Ticks || r2.Steps != ref.Steps {
			t.Errorf("resumed result diverged: mem %016x ticks %d steps %d, want mem %016x ticks %d steps %d",
				r2.MemSum, r2.Ticks, r2.Steps, ref.MemSum, ref.Ticks, ref.Steps)
		}
	})
}

// TestTickCadence: an attempt's tick acts at most once per
// cpu.DefaultCancelEvery steps, so even ProgressEvery: 1 yields samples
// at least that far apart — on the machine's countdown for a DSA-off
// job, at the engine's quiescent points for a DSA one.
func TestTickCadence(t *testing.T) {
	forEachMode(t, func(t *testing.T, job Job) {
		var steps []uint64
		p := NewPool(Options{Workers: 1, ProgressEvery: 1, OnProgress: func(pr Progress) {
			steps = append(steps, pr.Steps)
		}})
		defer p.Close()
		if r := p.Do(context.Background(), job); r.Status != StatusOK {
			t.Fatalf("job: %+v (err %v)", r, r.Err)
		}
		if len(steps) < 2 {
			t.Fatalf("%d progress samples, want several", len(steps))
		}
		for i := 1; i < len(steps); i++ {
			if d := steps[i] - steps[i-1]; d < cpu.DefaultCancelEvery {
				t.Fatalf("samples %d and %d are %d steps apart, want at least %d", i-1, i, d, cpu.DefaultCancelEvery)
			}
		}
	})
}
