package runner

import (
	"context"
	"errors"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/cpu"
	"repro/internal/dsa"
	"repro/internal/snapshot"
)

// ErrDrained marks an attempt stopped by Pool.Drain: the attempt wrote
// a final checkpoint at a step boundary (when checkpointing is on) and
// unwound, so a restarted owner can resume it bit-identically. Drained
// jobs are neither retried nor degraded — they are not failures of the
// job, only of the moment.
var ErrDrained = errors.New("runner: drained")

// ErrRevoked marks an attempt stopped by Pool.Revoke: the job's lease
// was lost (a cluster coordinator reassigned it, or the worker fenced
// itself), so the attempt wrote a final checkpoint and unwound exactly
// like a drain — snapshot kept, never retried or degraded. The new
// owner resumes from the checkpoint.
var ErrRevoked = errors.New("runner: lease revoked")

// CauseDrained is the classified cause of a drained job, exposed so
// callers (the service daemon) can tell interrupted work from failed
// work without string-matching errors.
const CauseDrained = "drained"

// CauseRevoked is the classified cause of a job whose lease was
// revoked mid-run.
const CauseRevoked = "revoked"

// Progress is a live sample of one running attempt, emitted through
// Options.OnProgress from the attempt's own goroutine by its tick, at a
// step boundary (an engine-quiescent point for DSA systems).
type Progress struct {
	// Job is the job's name (the service uses job IDs here).
	Job string
	// Attempt numbers the run this sample belongs to, 1-based;
	// degradation reruns count like retries.
	Attempt int
	// DSAOff marks samples from scalar-only runs (baseline jobs and
	// the degradation rung).
	DSAOff bool
	// Steps/Ticks are the machine's counters at the sample point; a
	// resumed attempt starts from its checkpoint's counters, not zero.
	Steps uint64
	Ticks int64
	// Takeovers/Fallbacks mirror the DSA stats counters (0 when DSAOff).
	Takeovers uint64
	Fallbacks uint64
}

// DefaultProgressEvery is the step interval between progress samples
// when Options.ProgressEvery is zero.
const DefaultProgressEvery = 250_000

// Pool is a long-lived job executor: the same robustness ladder as
// Run, but accepting jobs one at a time for as long as the pool lives.
// The service daemon owns one Pool across all HTTP submissions so the
// memory budget and worker bound hold globally, not per batch.
type Pool struct {
	opts     Options
	bud      *memBudget
	sem      chan struct{}
	stop     context.CancelFunc
	draining atomic.Bool
	inflight atomic.Int64

	revMu   sync.Mutex
	revoked map[string]struct{}
}

// NewPool builds a pool. opts.Workers bounds how many jobs Do admits
// concurrently; Close releases the pool's internals.
func NewPool(opts Options) *Pool {
	opts = opts.withDefaults()
	if opts.SnapshotDir != "" {
		// Best-effort: if the directory cannot be created, each job's
		// first save fails and disables its checkpointing with a note.
		_ = os.MkdirAll(opts.SnapshotDir, 0o755)
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Pool{
		opts:    opts,
		bud:     newMemBudget(ctx, opts.MemBudgetBytes),
		sem:     make(chan struct{}, opts.Workers),
		stop:    cancel,
		revoked: map[string]struct{}{},
	}
}

// Do runs one job to its terminal result, blocking until a worker slot
// frees. Like Run it never loses a job: a canceled ctx yields a failed
// result with cause "canceled", a drain in flight yields cause
// "drained" with the job's checkpoint preserved on disk.
func (p *Pool) Do(ctx context.Context, job Job) Result {
	name := job.Name
	if name == "" && job.Workload != nil {
		name = job.Workload.Name
	}
	select {
	case p.sem <- struct{}{}:
	case <-ctx.Done():
		return Result{Job: name, Status: StatusFailed, Cause: "canceled", Err: ctx.Err()}
	}
	defer func() { <-p.sem }()
	// A revocation always targets the run in flight at call time; a
	// lingering entry from a previous run of the same name must not
	// instantly kill this one (cluster reconciliation re-delivers any
	// still-wanted stop on the next heartbeat).
	p.revMu.Lock()
	delete(p.revoked, name)
	p.revMu.Unlock()
	p.inflight.Add(1)
	defer p.inflight.Add(-1)
	return runJob(ctx, p, job)
}

// Revoke asks the named job's running attempt to stop within one tick
// (cpu.DefaultCancelEvery steps) after writing a final checkpoint at
// that step boundary, unwinding with
// Status failed / Cause CauseRevoked and its snapshot kept — the
// drain semantics, scoped to one job. A cluster worker calls it when
// the coordinator withdraws an assignment or when the worker's own
// lease lapses (self-fencing). Revoking a job that is not running is
// harmless: the marker is cleared when that name next enters Do.
func (p *Pool) Revoke(jobName string) {
	p.revMu.Lock()
	p.revoked[jobName] = struct{}{}
	p.revMu.Unlock()
}

func (p *Pool) isRevoked(jobName string) bool {
	p.revMu.Lock()
	_, ok := p.revoked[jobName]
	p.revMu.Unlock()
	return ok
}

// Drain asks every running attempt to stop within one tick
// (cpu.DefaultCancelEvery steps) after writing a final checkpoint at
// that step boundary (when checkpointing is on). Drained
// jobs return with Status failed / Cause CauseDrained and keep their
// snapshot files, so a later pool (or daemon restart) resumes them.
// Drain does not block; callers wait on their own Do calls.
func (p *Pool) Drain() { p.draining.Store(true) }

// Draining reports whether Drain has been called.
func (p *Pool) Draining() bool { return p.draining.Load() }

// Inflight returns the number of jobs currently inside Do.
func (p *Pool) Inflight() int64 { return p.inflight.Load() }

// Workers returns the pool's concurrency bound.
func (p *Pool) Workers() int { return cap(p.sem) }

// MemUsage returns the in-flight memory budget occupancy in bytes;
// capacity is 0 when the budget is unlimited.
func (p *Pool) MemUsage() (inUse, capacity int64) {
	if p.bud == nil {
		return 0, 0
	}
	p.bud.mu.Lock()
	defer p.bud.mu.Unlock()
	return p.bud.inUse, p.bud.cap
}

// Close releases the pool's background resources. Jobs already inside
// Do finish normally; new Do calls after Close are a caller bug.
func (p *Pool) Close() { p.stop() }

// tick is one attempt's supervisor, the only way the attempt talks to
// its running simulation. It acts at most once per
// cpu.DefaultCancelEvery steps, and then, in order:
//
//  1. on a pool drain, writes a final checkpoint and returns ErrDrained;
//  2. on a revoked lease, writes a final checkpoint and returns
//     ErrRevoked;
//  3. writes a periodic checkpoint if one is due;
//  4. emits a progress sample if one is due.
//
// A Drain or Revoke called from OnProgress is therefore seen at the
// next tick, deterministically.
type tick struct {
	p       *Pool
	ck      *checkpointer // nil without checkpointing
	job     string
	attempt int

	m   *cpu.Machine
	sys *dsa.System // nil for DSA-off runs

	// last and lastProgress are the step counts at which the tick last
	// acted and last emitted a progress sample.
	last, lastProgress uint64
}

// build makes a fresh simulation for the attempt — the job's machine,
// inside a DSA system unless dsaOff, with the workload's input laid
// out — and installs the tick on it. A DSA-off machine runs the tick
// on its cancellation countdown, after ctx.Err: without takeovers it
// checks only at step boundaries, every cpu.DefaultCancelEvery steps.
// A DSA system runs it at engine-quiescent points, and the machine's
// check is ctx.Err alone.
func (t *tick) build(ctx context.Context, job Job, dsaOff bool) (err error) {
	t.sys = nil
	if dsaOff {
		t.m, err = cpu.New(job.Workload.Scalar(), job.CPU)
	} else if t.sys, err = dsa.NewSystem(job.Workload.Scalar(), job.CPU, job.DSA); err == nil {
		t.m = t.sys.M
	}
	if err != nil {
		return err
	}
	job.Workload.Setup(t.m)
	if t.sys != nil {
		t.m.SetCancelCheck(ctx.Err, 0)
		t.sys.SetRunHook(t.run)
		return nil
	}
	t.m.SetCancelCheck(func() error {
		if err := ctx.Err(); err != nil {
			return err
		}
		return t.act()
	}, 0)
	return nil
}

// arm starts the tick's cadences, and the checkpointer's, at the
// simulation's current step: zero, or the step a resume restored.
func (t *tick) arm() {
	t.last, t.lastProgress = t.m.Steps, t.m.Steps
	t.ck.arm(t.m.Steps, t.save)
}

// save serializes the whole simulation: machine-only sections for a
// DSA-off run, machine plus engine otherwise.
func (t *tick) save(w *snapshot.Writer) error {
	if t.sys == nil {
		t.m.SaveState(w)
		return nil
	}
	return t.sys.SaveState(w)
}

// restore loads a checkpoint into the simulation.
func (t *tick) restore(r *snapshot.Reader) error {
	if t.sys == nil {
		return t.m.RestoreState(r)
	}
	return t.sys.RestoreState(r)
}

// run is act for a DSA system's quiescent points, which come at every
// loop back-branch: it returns at once until cpu.DefaultCancelEvery
// steps have passed since the tick last acted.
func (t *tick) run() error {
	if t.m.Steps-t.last < cpu.DefaultCancelEvery {
		return nil
	}
	return t.act()
}

// act does the tick's work (see tick) at a step boundary.
func (t *tick) act() error {
	steps := t.m.Steps
	t.last = steps
	if t.p.draining.Load() {
		t.ck.saveNow()
		return ErrDrained
	}
	if t.p.isRevoked(t.job) {
		t.ck.saveNow()
		return ErrRevoked
	}
	t.ck.maybeSave(steps)
	if opts := &t.p.opts; opts.OnProgress != nil && steps-t.lastProgress >= opts.ProgressEvery {
		t.lastProgress = steps
		pr := Progress{Job: t.job, Attempt: t.attempt, DSAOff: t.sys == nil, Steps: steps, Ticks: t.m.Ticks}
		if t.sys != nil {
			st := t.sys.Stats()
			pr.Takeovers, pr.Fallbacks = st.Takeovers, st.Fallbacks
		}
		opts.OnProgress(pr)
	}
	return nil
}
