// Package runner is the simulation supervisor: it executes batches of
// dsa.System jobs (workload × configuration) on a bounded worker pool
// and guarantees that every job yields exactly one attributed result,
// whatever happens inside it.
//
// The robustness ladder, per job:
//
//  1. Run the job with its configured DSA, under a per-attempt
//     context deadline plumbed into the cpu step loop (checked every
//     cpu.DefaultCancelEvery instructions) and a panic guard that
//     converts a crashing job into an attributed failure.
//  2. On a fault-shaped failure (injected fault, divergence, guard
//     trip, panic, wrong output, blown deadline) retry up to Retries
//     times with exponential backoff.
//  3. If every DSA attempt failed, degrade: rerun the job DSA-off so
//     the batch still gets a scalar-correct result, marked degraded
//     and carrying the DSA failure's cause.
//  4. Only when even the scalar rerun fails does the job report
//     failed — always with a classified cause.
//
// An in-flight memory budget caps the summed footprint of concurrently
// resident machines, and results retain only counters and an 8-byte
// memory digest, so batch size is bounded by time, not by RAM.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/cpu"
	"repro/internal/dsa"
	"repro/internal/energy"
	"repro/internal/workloads"
)

// Status is a job's terminal state. Every job in a batch ends in
// exactly one of these — the supervisor never loses a job.
type Status string

// Job terminal states.
const (
	// StatusOK: the job completed with its configured DSA and passed
	// its output check (possibly after retries).
	StatusOK Status = "ok"
	// StatusDegraded: every DSA attempt failed but the DSA-off rerun
	// produced a verified scalar result. Cause records why the DSA
	// path was abandoned.
	StatusDegraded Status = "degraded"
	// StatusFailed: no rung of the ladder produced a good result.
	// Cause and Err record the terminal failure.
	StatusFailed Status = "failed"
)

// Job is one simulation to run: a workload under one machine + DSA
// configuration.
type Job struct {
	// Name labels the job in reports (defaults to the workload name).
	Name     string
	Workload *workloads.Workload
	CPU      cpu.Config
	DSA      dsa.Config
	// DSAOff runs the job scalar-only from the start (baseline jobs).
	DSAOff bool
	// Timeout overrides Options.Timeout for this job (0 = inherit).
	Timeout time.Duration
	// Resume lets this job's first attempt restore from a checkpoint
	// left by a previous run. Without it, a pre-existing snapshot file
	// is ignored (and overwritten); retries within this run resume from
	// their own checkpoints regardless. The service daemon sets it when
	// re-enqueueing work interrupted by a drain, dsasim -batch -resume
	// on every job.
	Resume bool
	// Epoch is the lease epoch (fencing token) of this assignment,
	// stamped into every checkpoint the job writes, header and file
	// name ("<job>.e<epoch>.dsnp"). Restore considers
	// only checkpoints at or below it, so a fenced former owner's
	// later writes can never be preferred over the current owner's.
	// Zero outside cluster operation.
	Epoch uint64
}

// Options parameterizes a batch.
type Options struct {
	// Workers bounds pool concurrency (0 = GOMAXPROCS).
	Workers int
	// Timeout is the per-attempt deadline (0 = none). Each retry and
	// the degradation rerun get a fresh deadline.
	Timeout time.Duration
	// Retries is the number of extra same-config attempts after a
	// retryable failure.
	Retries int
	// Backoff is the sleep before the first retry, doubling per
	// attempt (0 = no backoff).
	Backoff time.Duration
	// MemBudgetBytes caps the summed footprint of in-flight jobs
	// (0 = DefaultMemBudgetBytes, < 0 = unlimited).
	MemBudgetBytes int64
	// NoDegrade disables the final DSA-off rung (ablation runs where
	// a degraded result would be misleading).
	NoDegrade bool
	// SnapshotDir, when non-empty, enables durable checkpointing: each
	// job periodically writes a crash-consistent snapshot of its full
	// simulation state under this directory, retries resume from the
	// last good checkpoint instead of restarting, and a snapshot whose
	// restore fails validation is discarded with an attributed
	// restart-from-zero. Snapshots of successful jobs are deleted; a
	// failed job's last checkpoint is kept for post-mortem resume.
	SnapshotDir string
	// SnapshotEvery is the step interval between checkpoints
	// (0 = DefaultSnapshotEvery); a checkpoint is also written once
	// DefaultSnapshotInterval of wall time has passed. Both are
	// honoured at tick granularity: values below
	// cpu.DefaultCancelEvery act as cpu.DefaultCancelEvery.
	SnapshotEvery uint64
	// OnProgress, when non-nil, receives periodic Progress samples from
	// running attempts. It is called from worker goroutines — it must
	// be fast and safe for concurrent use.
	OnProgress func(Progress)
	// ProgressEvery is the step interval between progress samples
	// (0 = DefaultProgressEvery), honoured at tick granularity: values
	// below cpu.DefaultCancelEvery act as cpu.DefaultCancelEvery.
	ProgressEvery uint64
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.MemBudgetBytes == 0 {
		o.MemBudgetBytes = DefaultMemBudgetBytes
	}
	if o.ProgressEvery == 0 {
		o.ProgressEvery = DefaultProgressEvery
	}
	return o
}

// Result is one job's terminal report.
type Result struct {
	Job    string
	Status Status
	// Cause classifies the failure (failed) or the reason the DSA path
	// was abandoned (degraded); empty for clean ok runs.
	Cause string
	// Attempts counts every run made, degradation rerun included.
	Attempts int
	Degraded bool
	Wall     time.Duration
	// Ticks is the simulated wall-clock of the successful run (0 when
	// failed).
	Ticks int64
	// Steps counts the retired instructions of the successful run
	// (0 when failed).
	Steps uint64
	// AttemptCauses records the classified cause of every *failed*
	// attempt in the order they occurred (degradation rerun included),
	// so retry attribution survives however the job ends.
	AttemptCauses []string
	// Stats is a deep snapshot of the successful run's DSA counters
	// (nil for DSA-off and failed runs).
	Stats *dsa.Stats
	// Energy is the paper's energy-model breakdown for the successful
	// run (zero when failed).
	Energy energy.Breakdown
	// MemSum digests the successful run's final memory image; equal
	// digests mean byte-identical images.
	MemSum uint64
	// ResumedFromStep is the step count the successful attempt restored
	// from (0 = ran from the beginning).
	ResumedFromStep uint64
	// ResumeNote attributes snapshot trouble that did not fail the job:
	// a discarded-as-corrupt checkpoint ("restart-from-zero: ...") or
	// checkpointing disabled after a save error.
	ResumeNote string
	// Err is the terminal error of a failed job.
	Err error
}

// Report aggregates a batch.
type Report struct {
	Results []Result
	OK      int
	Degrade int
	Failed  int
	// Retries counts extra attempts across the batch (degradation
	// reruns included).
	Retries int
	Wall    time.Duration
}

// Run executes jobs on the worker pool and returns one Result per job,
// in input order. It never returns early: a canceled context drains
// the queue, failing the remaining jobs with cause "canceled" so the
// report still accounts for every job.
func Run(ctx context.Context, jobs []Job, opts Options) *Report {
	p := NewPool(opts)
	defer p.Close()
	results := make([]Result, len(jobs))

	start := time.Now()
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < p.opts.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i] = runJob(ctx, p, jobs[i])
			}
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()

	rep := &Report{Results: results, Wall: time.Since(start)}
	for i := range results {
		switch results[i].Status {
		case StatusOK:
			rep.OK++
		case StatusDegraded:
			rep.Degrade++
		default:
			rep.Failed++
		}
		rep.Retries += results[i].Attempts - 1
	}
	return rep
}

// runJob walks one job down the ladder. It always returns a terminal
// Result; no error or panic escapes.
func runJob(ctx context.Context, p *Pool, job Job) (res Result) {
	opts := p.opts
	start := time.Now()
	if job.Name == "" && job.Workload != nil {
		job.Name = job.Workload.Name
	}
	res = Result{Job: job.Name, Status: StatusFailed, Cause: "error"}
	defer func() { res.Wall = time.Since(start) }()

	ck := newCheckpointer(job, opts)

	// notes accumulates every attempt's snapshot trouble in the order
	// it occurred, so a note from a failed or resumed-over attempt
	// survives into the terminal result however the job ends.
	var notes []string
	addNote := func(attempt int, n string) {
		if n != "" {
			notes = append(notes, fmt.Sprintf("attempt %d: %s", attempt, n))
		}
	}

	var lastCause string
	var lastErr error
	for a := 0; a <= opts.Retries; a++ {
		if a > 0 && opts.Backoff > 0 {
			if !sleepCtx(ctx, opts.Backoff<<(a-1)) {
				break
			}
		}
		res.Attempts++
		// The first attempt resumes a previous run's checkpoint only
		// when the job opted in; retries always resume from this run's
		// own last good checkpoint.
		out, rf, note, err := attempt(ctx, p, job, job.DSAOff, ck, job.Resume || a > 0, res.Attempts)
		addNote(res.Attempts, note)
		if err == nil {
			res.Status = StatusOK
			res.Cause = ""
			res.ResumedFromStep = rf
			fillOutcome(&res, out, ck, notes)
			return res
		}
		cause, retryable := classify(err)
		res.AttemptCauses = append(res.AttemptCauses, cause)
		lastCause, lastErr = cause, err
		if !retryable || ctx.Err() != nil {
			break
		}
	}

	// Degradation rung: the DSA path is lost; salvage a scalar result.
	// It always runs fresh from zero with no checkpointing: the last
	// checkpoint belongs to the abandoned DSA path and must not leak
	// simulation state into the scalar-correct rerun.
	if !opts.NoDegrade && !job.DSAOff && ctx.Err() == nil && degradable(lastErr) {
		res.Attempts++
		out, _, note, err := attempt(ctx, p, job, true, nil, false, res.Attempts)
		addNote(res.Attempts, note)
		if err == nil {
			res.Status = StatusDegraded
			res.Degraded = true
			res.Cause = lastCause
			fillOutcome(&res, out, ck, notes)
			return res
		}
		// The scalar rerun's own failure is the terminal one, but keep
		// the DSA cause visible in the chain.
		cause, _ := classify(err)
		res.AttemptCauses = append(res.AttemptCauses, cause)
		lastCause = cause
		lastErr = fmt.Errorf("degraded rerun: %w (dsa path: %v)", err, lastErr)
	}

	res.Status = StatusFailed
	res.Cause = lastCause
	res.Err = lastErr
	res.ResumeNote = joinNotes(notes, ck)
	return res
}

// outcome carries what a successful attempt leaves behind — counters
// and a digest, never the machine.
type outcome struct {
	ticks  int64
	steps  uint64
	stats  *dsa.Stats
	energy energy.Breakdown
	memSum uint64
}

// fillOutcome copies a successful attempt's outcome into the terminal
// result and retires the job's snapshot — a finished job needs no
// checkpoint, and a stale one would poison a future -resume batch.
func fillOutcome(res *Result, out *outcome, ck *checkpointer, notes []string) {
	res.Ticks, res.Steps, res.Stats, res.MemSum = out.ticks, out.steps, out.stats, out.memSum
	res.Energy = out.energy
	res.ResumeNote = joinNotes(notes, ck)
	if ck != nil {
		ck.cleanup()
	}
}

// joinNotes renders the ordered per-attempt snapshot notes plus the
// checkpointer's own non-fatal trouble (a disabled save) as the
// result's ResumeNote.
func joinNotes(notes []string, ck *checkpointer) string {
	if n := ck.note(); n != "" {
		notes = append(notes, n)
	}
	return strings.Join(notes, "; ")
}

// attempt runs the job once, DSA on or off, under the memory budget,
// the per-attempt deadline and the panic guard. A non-nil ck wires
// periodic checkpointing into the run; resume additionally restores
// the last good checkpoint before running (restart-from-zero with an
// attributed note if the file is missing, corrupt, or mismatched).
// DSA-off snapshots carry only the machine's sections. resumedFrom and
// note are valid even when err is non-nil — they are set the moment
// the resume decision is made, so a later failure (or panic) cannot
// erase the attribution.
func attempt(ctx context.Context, p *Pool, job Job, dsaOff bool, ck *checkpointer, resume bool, attemptNo int) (out *outcome, resumedFrom uint64, note string, err error) {
	fp := footprint(job)
	if err := p.bud.acquire(ctx, fp); err != nil {
		return nil, 0, "", err
	}
	defer p.bud.release(fp)

	timeout := p.opts.Timeout
	if job.Timeout > 0 {
		timeout = job.Timeout
	}
	actx := ctx
	if timeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	// Panic isolation: a crash anywhere in the simulator becomes an
	// attributed failure of this attempt, not of the process.
	defer func() {
		if r := recover(); r != nil {
			out = nil
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()

	t := &tick{p: p, ck: ck, job: job.Name, attempt: attemptNo}
	if err := t.build(actx, job, dsaOff); err != nil {
		return nil, 0, "", err
	}
	if ck != nil && resume {
		if note = ck.restore(t.restore); note != "" {
			// A failed restore may leave the simulation half-written;
			// rebuild it from scratch and run from zero.
			if err := t.build(actx, job, dsaOff); err != nil {
				return nil, 0, note, err
			}
		}
		resumedFrom = t.m.Steps
	}
	t.arm()
	m, sys := t.m, t.sys
	if sys == nil {
		err = m.Run(nil)
	} else {
		err = sys.Run()
	}
	if err != nil {
		return nil, resumedFrom, note, err
	}
	if err := job.Workload.Check(m); err != nil {
		return nil, resumedFrom, note, fmt.Errorf("%w: %v", ErrCheckFailed, err)
	}
	out = &outcome{ticks: m.Ticks, steps: m.Steps, memSum: m.Mem.Sum64()}
	var ev energy.DSAEvents
	if sys != nil {
		out.stats = sys.Stats().Snapshot()
		ev = sys.Stats().EnergyEvents()
	}
	out.energy = energy.Compute(energy.DefaultParams(), m.Counts, m.Caches.L1Stats(), m.Caches.L2Stats(), ev)
	return out, resumedFrom, note, nil
}

// sleepCtx sleeps for d unless ctx is canceled first; it reports
// whether the full sleep elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// Matrix builds the workload × configuration job grid the batch CLI
// and the chaos soak run: every workload in ws crossed with every
// named DSA configuration. A zero cpu config means
// cpu.DefaultConfig().
func Matrix(ws []*workloads.Workload, configs map[string]dsa.Config, cpuCfg cpu.Config) []Job {
	if cpuCfg == (cpu.Config{}) {
		cpuCfg = cpu.DefaultConfig()
	}
	names := make([]string, 0, len(configs))
	for name := range configs {
		names = append(names, name)
	}
	sort.Strings(names)
	var jobs []Job
	for _, w := range ws {
		for _, name := range names {
			jobs = append(jobs, Job{
				Name:     w.Name + "/" + name,
				Workload: w,
				CPU:      cpuCfg,
				DSA:      configs[name],
			})
		}
	}
	return jobs
}
