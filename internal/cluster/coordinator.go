package cluster

import (
	"crypto/rand"
	"encoding/hex"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

// Config parameterizes the coordinator.
type Config struct {
	// LeaseTTL is how long a worker lease lives without a heartbeat
	// renewal (0 = DefaultLeaseTTL). Workers learn it at join and give
	// each heartbeat a third of it to answer; the coordinator holds a
	// heartbeat with nothing to deliver for up to a sixth of it.
	LeaseTTL time.Duration
	// MaxJobs bounds the non-terminal job table (0 = DefaultMaxJobs).
	// A full table refuses submissions with 429 + Retry-After.
	MaxJobs int
	// RetryAfter is the backpressure hint base on 429 responses
	// (0 = server.DefaultRetryAfter); the advertised value is jittered.
	RetryAfter time.Duration
	// StateFile persists the job table, the lease table, and — load
	// bearing for fencing — the epoch counter across restarts. Empty
	// disables persistence.
	StateFile string
	// Logf receives operational log lines (nil = silent).
	Logf func(format string, args ...any)

	// The fields below are in-package seams the HA node threads through
	// when it runs a coordinator as the leader of a replicated set.
	// Solo mode leaves them zero.

	// metrics, when non-nil, is a shared registry: counters like
	// failovers must survive the node's role flips, so the node owns
	// one registry across every coordinator it promotes.
	metrics *clusterMetrics
	// leaderEpoch is the leadership term. Non-zero, it occupies the
	// high 32 bits of every assignment epoch this coordinator mints, so
	// a newer leader's assignments fence above everything any deposed
	// leader ever issued. Zero (solo mode) leaves assignment epochs as
	// the raw counter, bit-compatible with single-coordinator operation.
	leaderEpoch uint64
	// preload, when non-nil, replaces the state-file restore: the
	// replicated mirror a promoted standby adopts.
	preload *clusterState
	// repl, when non-nil, receives a delta record for every state
	// mutation — the feed the leader pushes to its standbys.
	repl *replicator
}

// Coordinator defaults.
const (
	DefaultLeaseTTL = 5 * time.Second
	DefaultMaxJobs  = 256
)

// workerEntry is one live worker's lease.
type workerEntry struct {
	id       string
	capacity int
	deadline time.Time
	// session is the nonce minted at join. A heartbeat renews this
	// lease only if it presents the nonce: a delayed duplicate from a
	// fenced predecessor that happened to reuse the ID cannot.
	session string
	// lastSeq is the highest heartbeat sequence number accepted this
	// session; replays (seq <= lastSeq) are rejected with 409.
	lastSeq uint64
	// jobs is the set of job IDs currently leased to this worker.
	jobs map[string]struct{}
	// wake is closed, and replaced, when an assignment gives this
	// worker a start: it releases every heartbeat the worker has held.
	// Closing wakes all holders at once, so a stale held request
	// cannot swallow the wake its successor is waiting for.
	wake chan struct{}
}

// newWorkerEntry builds a lease entry, for a join or a restore.
func newWorkerEntry(id string, capacity int, session string, deadline time.Time) *workerEntry {
	return &workerEntry{
		id:       id,
		capacity: capacity,
		deadline: deadline,
		session:  session,
		jobs:     map[string]struct{}{},
		wake:     make(chan struct{}),
	}
}

// wakeLocked releases the worker's held heartbeats. The caller must
// hold c.mu.
func (w *workerEntry) wakeLocked() {
	close(w.wake)
	w.wake = make(chan struct{})
}

// newSession mints an unguessable session nonce.
func newSession() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("cluster: reading session entropy: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}

// Coordinator owns the cluster's job plane (the same public API as the
// standalone daemon) and lease table, and runs the lease protocol
// against worker processes. Failure detection is the expiry loop: a
// worker that misses its lease TTL is declared dead and its jobs are
// reassigned at higher epochs.
type Coordinator struct {
	cfg      Config
	metrics  *clusterMetrics
	mux      *http.ServeMux
	stopCh   chan struct{}
	wg       sync.WaitGroup
	stopOnce sync.Once
	draining atomic.Bool

	// leaderEpoch/repl mirror Config: the leadership term composed into
	// assignment epochs, and the replication log fed on every mutation.
	leaderEpoch uint64
	repl        *replicator

	// mu guards the plane's job table together with the lease table
	// and counters, so a job and its lease change in one step and
	// replication records append in mutation order.
	mu      sync.Mutex
	plane   *server.Plane
	workers map[string]*workerEntry
	// nextEpoch is the fencing-token counter: every assignment gets
	// epoch stampEpochLocked() — ++nextEpoch composed under the
	// leadership term — globally monotonic across jobs, workers, and
	// (via the state file) coordinator restarts.
	nextWorker, nextEpoch uint64
}

// NewCoordinator builds the coordinator, restores its tables from
// cfg.StateFile, and starts the expiry/assignment loop.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = DefaultMaxJobs
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = server.DefaultRetryAfter
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	metrics := cfg.metrics
	if metrics == nil {
		metrics = newClusterMetrics()
	}
	c := &Coordinator{
		cfg:         cfg,
		metrics:     metrics,
		leaderEpoch: cfg.leaderEpoch,
		repl:        cfg.repl,
		stopCh:      make(chan struct{}),
		workers:     map[string]*workerEntry{},
	}
	c.plane = server.NewPlane(server.Hooks{
		Mu:       &c.mu,
		Draining: c.draining.Load,
		Full:     c.fullLocked,
		Admitted: c.admittedLocked,
		Unready:  c.unreadyLocked,
		Metrics:  c.Metrics,
	}, cfg.RetryAfter, metrics.jobs)
	c.mux = c.routes()
	if cfg.preload != nil {
		// A promoted standby adopts its replicated mirror instead of
		// the state file — and persists it at once, so the file matches
		// the term it now leads.
		c.mu.Lock()
		c.adoptStateLocked(cfg.preload)
		c.saveStateLocked()
		c.mu.Unlock()
	} else if err := c.restore(); err != nil {
		// A bad state file is quarantined, not fatal — same policy as
		// the standalone daemon.
		cfg.Logf("dsasimd: %v", err)
	}

	// The expiry loop must notice a lapsed lease well before a whole
	// TTL passes again, but not burn a core on tiny test TTLs.
	tick := cfg.LeaseTTL / 4
	if tick > 250*time.Millisecond {
		tick = 250 * time.Millisecond
	}
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	c.wg.Add(1)
	go c.loop(tick)
	return c, nil
}

// loop is the failure detector: every tick it expires lapsed leases,
// requeues their jobs, and assigns pending work.
func (c *Coordinator) loop(tick time.Duration) {
	defer c.wg.Done()
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-c.stopCh:
			return
		case <-t.C:
			c.mu.Lock()
			expired := c.expireLocked(time.Now())
			if c.assignLocked() || expired {
				c.saveStateLocked()
			}
			c.mu.Unlock()
		}
	}
}

// expireLocked declares workers with lapsed leases dead and requeues
// their non-terminal jobs for takeover. It reports whether any lease
// expired.
func (c *Coordinator) expireLocked(now time.Time) (expired bool) {
	for id, w := range c.workers {
		if !now.After(w.deadline) {
			continue
		}
		delete(c.workers, id)
		c.repWorkerDelLocked(id)
		c.metrics.onLeaseExpire()
		released := 0
		for jid := range w.jobs {
			j := c.plane.Get(jid)
			if j == nil || server.Terminal(j.Status) || j.Owner != id {
				continue
			}
			j.Owner = ""
			j.Resume = true
			j.Status = server.StatusQueued
			c.repJobLocked(j)
			released++
		}
		c.metrics.onTakeover(released)
		c.cfg.Logf("dsasimd: worker %s lease expired, %d job(s) requeued for takeover", id, released)
		expired = true
	}
	return expired
}

// assignLocked hands every unassigned queued job, in submission
// order, to the live worker with the most free slots (ties go to the
// lower worker ID), each assignment under a freshly bumped fencing
// epoch, and wakes that worker's held heartbeat to deliver it. Jobs
// that find no free slot stay pending for the next pass. It reports
// whether anything was assigned; persisting is the caller's, once per
// request.
func (c *Coordinator) assignLocked() (changed bool) {
	c.plane.Each(func(j *server.Job) bool {
		if j.Status != server.StatusQueued || j.Owner != "" {
			return true
		}
		w := c.freestWorkerLocked()
		if w == nil {
			return false // every worker is at capacity; later jobs can't do better
		}
		j.Owner = w.id
		j.Epoch = c.stampEpochLocked()
		w.jobs[j.ID] = struct{}{}
		w.wakeLocked()
		c.repJobLocked(j)
		changed = true
		return true
	})
	if changed {
		c.repCountersLocked()
	}
	return changed
}

// freestWorkerLocked returns the live worker with the most free slots,
// ties going to the lower worker ID, or nil when every worker is full.
func (c *Coordinator) freestWorkerLocked() *workerEntry {
	var best *workerEntry
	bestFree := 0
	for _, w := range c.workers {
		free := w.capacity - len(w.jobs)
		if free > bestFree || free == bestFree && best != nil && w.id < best.id {
			best, bestFree = w, free
		}
	}
	return best
}

// stampEpochLocked mints the next assignment fencing epoch. Solo mode
// (leaderEpoch 0) issues the raw counter — bit-compatible with
// single-coordinator operation. Under HA the leadership term occupies
// the high 32 bits: every assignment minted by a newer leader compares
// strictly above every epoch any deposed leader ever issued, whatever
// their counters did, which is what keeps checkpoint preference
// (highest epoch ≤ the assignment's) and 409 write fencing correct
// across failovers.
func (c *Coordinator) stampEpochLocked() uint64 {
	c.nextEpoch++
	return c.leaderEpoch<<32 | c.nextEpoch
}

// repJobLocked / repWorkerLocked / repWorkerDelLocked / repCountersLocked
// tee one mutation into the replication log (no-ops without one). The
// caller must hold c.mu — that ordering is what makes the log replay
// deterministic.
func (c *Coordinator) repJobLocked(j *server.Job) {
	if c.repl == nil {
		return
	}
	row := j.Row()
	c.repl.append(repRecord{Kind: recJob, Job: &row})
}

func (c *Coordinator) repWorkerLocked(we *workerEntry) {
	if c.repl == nil {
		return
	}
	c.repl.append(repRecord{Kind: recWorker, Worker: &persistedWorker{ID: we.id, Capacity: we.capacity, Session: we.session}})
}

func (c *Coordinator) repWorkerDelLocked(id string) {
	if c.repl == nil {
		return
	}
	c.repl.append(repRecord{Kind: recWorkerDel, WorkerDel: id})
}

func (c *Coordinator) repCountersLocked() {
	if c.repl == nil {
		return
	}
	c.repl.append(repRecord{Kind: recCounters, Counters: &repCounters{NextJob: c.plane.Issued, NextWorker: c.nextWorker, NextEpoch: c.nextEpoch}})
}

// replicaSnapshot renders a full-state catch-up record, consistent
// with the log: appends happen under c.mu, so reading the sequence
// here pins exactly which deltas the snapshot subsumes.
func (c *Coordinator) replicaSnapshot() repRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.exportStateLocked()
	var seq uint64
	if c.repl != nil {
		seq = c.repl.last()
	}
	return repRecord{Seq: seq, Kind: recSnapshot, State: &st}
}

// fullLocked bounds the open (non-terminal) jobs at MaxJobs.
func (c *Coordinator) fullLocked() string {
	if c.plane.Open() >= c.cfg.MaxJobs {
		return "job table full"
	}
	return ""
}

// unreadyLocked: the cluster can usefully accept a submission only
// when at least one worker holds a current lease.
func (c *Coordinator) unreadyLocked() string {
	if len(c.workers) == 0 {
		return "no live workers"
	}
	return ""
}

// admittedLocked replicates an admission, assigns it if a worker has
// room, and persists the tables — one save per submission.
func (c *Coordinator) admittedLocked(j *server.Job) {
	c.repJobLocked(j)
	c.assignLocked()
	c.repCountersLocked()
	c.saveStateLocked()
}

// gaugesSnapshot samples the point-in-time gauges. The HA node reuses
// it when it scrapes a leader, overriding the replication fields with
// its push-loop view.
func (c *Coordinator) gaugesSnapshot() clusterGauges {
	c.mu.Lock()
	inflight := make(map[string]int, len(c.workers))
	for id, w := range c.workers {
		inflight[id] = len(w.jobs)
	}
	pending := 0
	c.plane.Each(func(j *server.Job) bool {
		if j.Status == server.StatusQueued && j.Owner == "" {
			pending++
		}
		return true
	})
	g := clusterGauges{workersLive: len(c.workers), jobsPending: pending, inflight: inflight, role: 1}
	if c.repl != nil {
		g.replSeq = c.repl.last()
	}
	c.mu.Unlock()
	return g
}

// Metrics renders the Prometheus exposition. A solo coordinator is its
// own (only) leader: role 1, replication idle.
func (c *Coordinator) Metrics() string {
	return c.metrics.render(c.gaugesSnapshot())
}

// Close stops the expiry loop, releases every held heartbeat (so a
// server shutdown that follows need not wait out a hold), marks the
// coordinator draining, and persists a final state snapshot. Workers
// keep running until their heartbeats fail; on the next coordinator
// start they either renew (restart within the grace TTL) or rejoin.
func (c *Coordinator) Close() {
	c.stopOnce.Do(func() {
		c.draining.Store(true)
		close(c.stopCh)
		c.wg.Wait()
		c.mu.Lock()
		c.saveStateLocked()
		c.mu.Unlock()
		c.cfg.Logf("dsasimd: coordinator closed")
	})
}
