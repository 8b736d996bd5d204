package server

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/runner"
)

// Config parameterizes the service.
type Config struct {
	// QueueDepth bounds the admission queue (0 = DefaultQueueDepth).
	// A full queue refuses submissions with 429 + Retry-After.
	QueueDepth int
	// Workers bounds concurrent simulations (0 = runner default).
	Workers int
	// SnapshotDir holds per-job runner checkpoints. Empty disables
	// durability: drains then interrupt without resume.
	SnapshotDir string
	// StateFile is the daemon-owned job table (snapshot container).
	// Empty disables job-table persistence.
	StateFile string
	// Runner carries the execution knobs (timeout, retries, backoff,
	// memory budget, snapshot cadence, progress cadence). Workers,
	// SnapshotDir and OnProgress are owned by the server and
	// overwritten.
	Runner runner.Options
	// RetryAfter is the backpressure hint on 429 responses
	// (0 = DefaultRetryAfter). The advertised value carries a small
	// random jitter above this base so a rejected fleet does not
	// reconverge on one retry instant.
	RetryAfter time.Duration
	// Logf receives operational log lines (nil = silent).
	Logf func(format string, args ...any)
}

// Service defaults.
const (
	DefaultQueueDepth = 64
	DefaultRetryAfter = 2 * time.Second
)

// Server is the standalone dsasimd service: a job plane whose admitted
// jobs wait in a bounded queue for one runner.Pool, owned for the
// server's whole life. Handler serves its HTTP API, Drain runs the
// graceful shutdown.
type Server struct {
	cfg     Config
	pool    *runner.Pool
	queue   chan *Job
	stopCh  chan struct{}
	wg      sync.WaitGroup
	baseCtx context.Context
	cancel  context.CancelFunc
	// interrupted counts jobs a drain checkpointed and unwound.
	interrupted atomic.Uint64

	// mu guards the plane's job table; holding it is also what makes
	// a send on queue non-blocking after fullLocked saw room.
	mu    sync.Mutex
	plane *Plane

	drainOnce sync.Once
}

// New builds the service, restores the job table from cfg.StateFile
// (re-queueing unfinished jobs with resume semantics), and starts the
// worker pool.
func New(cfg Config) (*Server, error) {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = DefaultRetryAfter
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}

	s := &Server{
		cfg:    cfg,
		queue:  make(chan *Job, cfg.QueueDepth),
		stopCh: make(chan struct{}),
	}
	s.baseCtx, s.cancel = context.WithCancel(context.Background())

	ropts := cfg.Runner
	ropts.Workers = cfg.Workers
	ropts.SnapshotDir = cfg.SnapshotDir
	ropts.OnProgress = s.onProgress
	s.pool = runner.NewPool(ropts)
	s.plane = NewPlane(Hooks{
		Mu:       &s.mu,
		Draining: s.pool.Draining,
		Full:     s.fullLocked,
		Admitted: s.admittedLocked,
		Metrics:  s.Metrics,
	}, cfg.RetryAfter, NewJobMetrics())

	if err := s.restore(); err != nil {
		// A bad state file is quarantined, not fatal: the service must
		// come back up even when its own table is damaged.
		cfg.Logf("dsasimd: %v", err)
	}

	// One server worker per pool slot: queue latency stays visible in
	// queue depth instead of hiding inside blocked Do calls.
	for i := 0; i < s.pool.Workers(); i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

func (s *Server) fullLocked() string {
	if len(s.queue) >= s.cfg.QueueDepth {
		return "queue full"
	}
	return ""
}

// admittedLocked queues an admitted job and persists the table.
func (s *Server) admittedLocked(j *Job) {
	s.queue <- j
	if err := s.saveLocked(); err != nil {
		s.cfg.Logf("dsasimd: saving state: %v", err)
	}
}

// restore loads the persisted job table and re-queues unfinished work.
func (s *Server) restore() error {
	st, err := LoadState(s.cfg.StateFile)
	if st == nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if st.NextID > 0 {
		s.plane.Issued = st.NextID - 1
	}
	requeued := 0
	for _, j := range s.plane.Restore(st.Jobs) {
		// Interrupted and mid-run jobs resume from their checkpoint;
		// queued ones simply run (their resume finds no file and
		// starts clean).
		j.Resume = j.Resume || j.Status != StatusQueued
		j.Status = StatusQueued
		select {
		case s.queue <- j:
			requeued++
		default:
			// More surviving jobs than queue slots: keep them queued in
			// the table; they re-enter on the next restart. This can
			// only happen when QueueDepth shrank across the restart.
			s.cfg.Logf("dsasimd: job %s does not fit the shrunken queue; parked", j.ID)
		}
	}
	if requeued > 0 {
		s.cfg.Logf("dsasimd: restored %d job(s) from %s, %d re-queued", len(st.Jobs), s.cfg.StateFile, requeued)
	}
	return nil
}

// worker pulls admitted jobs until the server drains or closes.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		if s.pool.Draining() {
			return
		}
		select {
		case <-s.stopCh:
			return
		case j := <-s.queue:
			s.runOne(j)
		}
	}
}

// runOne executes one admitted job through the pool, records its
// result, persists the table, and publishes the lifecycle.
func (s *Server) runOne(j *Job) {
	s.mu.Lock()
	j.Status = StatusRunning
	j.Started = time.Now()
	resume := j.Resume
	s.mu.Unlock()
	j.Events.Publish(Event{Type: "status", Job: j.ID, Status: StatusRunning})

	r, ok := RunJob(s.baseCtx, s.pool, j.ID, j.Spec, 0, resume)
	if !ok {
		s.mu.Lock()
		j.Status = StatusInterrupted
		j.Resume = true
		s.mu.Unlock()
		s.interrupted.Add(1)
		j.Events.Publish(Event{Type: "status", Job: j.ID, Status: StatusInterrupted})
		s.cfg.Logf("dsasimd: job %s interrupted by drain (checkpoint kept)", j.ID)
		return
	}
	s.mu.Lock()
	j.Finish(r)
	if err := s.saveLocked(); err != nil {
		s.cfg.Logf("dsasimd: saving state: %v", err)
	}
	s.mu.Unlock()
	s.plane.Done(j, r)
	s.cfg.Logf("dsasimd: job %s %s (attempts=%d wall=%s)", j.ID, r.Status, r.Attempts, time.Duration(r.WallNS).Round(time.Millisecond))
}

// onProgress routes pool progress samples to their job.
func (s *Server) onProgress(p runner.Progress) {
	pj := ProgressFromRunner(p)
	s.mu.Lock()
	j := s.plane.Get(p.Job)
	if j != nil {
		j.Progress = &pj
	}
	s.mu.Unlock()
	if j != nil {
		j.Events.Publish(Event{Type: "progress", Job: p.Job, Status: StatusRunning, Progress: &pj})
	}
}

// Drain is the graceful-shutdown path: refuse new work, ask every
// running attempt to checkpoint and unwind, wait for the workers
// (bounded by ctx), persist the job table, and release the pool.
// Interrupted and queued jobs survive in the table; a New() on the
// same StateFile/SnapshotDir resumes them bit-identically. Drain is
// idempotent: only the first call does the work (and reports errors),
// repeats return nil immediately.
func (s *Server) Drain(ctx context.Context) error {
	var err error
	s.drainOnce.Do(func() { err = s.drain(ctx) })
	return err
}

func (s *Server) drain(ctx context.Context) error {
	s.pool.Drain()
	close(s.stopCh)

	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = fmt.Errorf("drain: workers still busy: %w", ctx.Err())
	}

	s.mu.Lock()
	if serr := s.saveLocked(); serr != nil && err == nil {
		err = serr
	}
	s.mu.Unlock()
	s.cancel()
	s.pool.Close()
	s.cfg.Logf("dsasimd: drained")
	return err
}

// Metrics renders the Prometheus exposition: the queue and pool
// gauges, the drain counter, and the job-result family.
func (s *Server) Metrics() string {
	inUse, capacity := s.pool.MemUsage()
	var b strings.Builder
	WriteMetric(&b, "gauge", "dsasimd_queue_depth", "Jobs admitted and waiting for a worker.", len(s.queue))
	WriteMetric(&b, "gauge", "dsasimd_queue_capacity", "Bounded queue capacity.", s.cfg.QueueDepth)
	WriteMetric(&b, "gauge", "dsasimd_jobs_inflight", "Jobs currently executing on the worker pool.", s.pool.Inflight())
	WriteMetric(&b, "gauge", "dsasimd_mem_inflight_bytes", "In-flight memory budget occupancy.", inUse)
	WriteMetric(&b, "gauge", "dsasimd_mem_budget_bytes", "In-flight memory budget capacity (0 = unlimited).", capacity)
	WriteMetric(&b, "counter", "dsasimd_jobs_interrupted_total", "Jobs checkpointed and unwound by a drain.", s.interrupted.Load())
	s.plane.metrics.Render(&b, "dsasimd_")
	return b.String()
}

// Handler returns the service's HTTP API: the job plane's routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	s.plane.Routes(mux)
	return mux
}
