package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/runner"
	"repro/internal/server"
)

// Worker RPC knobs. Every cluster RPC carries its own context
// deadline: without one, a single hung request on a shared client
// timeout (10s, say) could burn most of a 5s lease and force a
// spurious self-fence. Heartbeats are capped tighter still — at the
// heartbeat interval — so a stalled renewal leaves room to retry
// before the lease runs out.
const (
	// rpcTimeout bounds join, complete, and progress RPCs.
	rpcTimeout = 2 * time.Second
	// completeAttempts is the retry budget for delivering a terminal
	// result before dropping it (the next owner's re-run converges to
	// the identical result, so delivery is an optimization).
	completeAttempts = 6
	// backoffBase/backoffCap bracket the full-jitter exponential
	// backoff used on every retried worker RPC.
	backoffBase = 25 * time.Millisecond
	backoffCap  = 2 * time.Second
)

// WorkerConfig parameterizes one worker process.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL — or a comma-separated
	// list of them under replicated-coordinator HA. The worker talks to
	// one endpoint at a time and rotates to the next on connect
	// failures and standby refusals (502/503), under the same jittered
	// retry budgets as before; fences (409) and refusals that mean the
	// *cluster* said no (400/404/429) never rotate.
	Coordinator string
	// Capacity is how many jobs to run concurrently (0 = 1).
	Capacity int
	// SnapshotDir is the checkpoint directory — shared with the other
	// workers; files are named by job and lease epoch, and takeover
	// resumes happen through it.
	SnapshotDir string
	// Runner carries execution knobs (snapshot cadence, retries,
	// timeout…). Workers, SnapshotDir and OnProgress are owned by the
	// worker and overwritten.
	Runner runner.Options
	// Transport, when set, replaces the HTTP transport for every
	// coordinator RPC — the seam netchaos injects client-side faults
	// through. Nil uses http.DefaultTransport.
	Transport http.RoundTripper
	// Logf receives operational log lines (nil = silent).
	Logf func(format string, args ...any)
}

// assignment is one leased job the worker is running.
type assignment struct {
	job   string
	epoch uint64
}

// Worker executes leased jobs against a coordinator. It has no HTTP
// listener: it pulls desired state through its own heartbeats and
// pushes progress and results, every write stamped with its lease
// epoch. When its lease lapses — heartbeats failing long enough, or
// the coordinator fencing its session with 409 — it self-fences:
// every running attempt is revoked (checkpointing and unwinding), and
// the worker joins again under a fresh identity and pool.
type Worker struct {
	cfg    WorkerConfig
	client *http.Client
	stopCh chan struct{}
	once   sync.Once
	jobWG  sync.WaitGroup

	// endpoints is the coordinator endpoint list; epIdx mod len is the
	// one currently in use (a monotonic index so concurrent failures
	// rotate once, not once each).
	endpoints []string
	epIdx     atomic.Uint32

	// rpcRetries/rpcTimeouts accumulate client-side RPC failures since
	// the last delivered heartbeat; the next accepted heartbeat ships
	// them to the coordinator's metrics and subtracts what it shipped.
	rpcRetries  atomic.Uint64
	rpcTimeouts atomic.Uint64

	mu      sync.Mutex
	id      string
	session string
	seq     uint64
	pool    *runner.Pool
	running map[string]assignment
}

// NewWorker builds a worker; Run starts it.
func NewWorker(cfg WorkerConfig) *Worker {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 1
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return &Worker{
		cfg:       cfg,
		client:    &http.Client{Transport: cfg.Transport},
		stopCh:    make(chan struct{}),
		running:   map[string]assignment{},
		endpoints: splitEndpoints(cfg.Coordinator),
	}
}

// splitEndpoints parses a comma-separated coordinator endpoint list.
func splitEndpoints(s string) []string {
	var out []string
	for _, e := range strings.Split(s, ",") {
		if e = strings.TrimRight(strings.TrimSpace(e), "/"); e != "" {
			out = append(out, e)
		}
	}
	if len(out) == 0 {
		out = []string{""}
	}
	return out
}

// rotate advances to the next endpoint, if the caller's view (from) is
// still current — so a burst of failures against one endpoint moves
// one step, not past the live coordinator.
func (w *Worker) rotate(from uint32) {
	if len(w.endpoints) < 2 {
		return
	}
	if w.epIdx.CompareAndSwap(from, from+1) {
		w.cfg.Logf("dsasimd-worker: rotating coordinator endpoint to %s",
			w.endpoints[int((from+1)%uint32(len(w.endpoints)))])
	}
}

// Run joins the coordinator and serves leases until Close. Each fence
// (lease lapse or a 409 on heartbeat) ends one session — its pool and
// identity are discarded — and a fresh join starts the next.
func (w *Worker) Run() {
	for {
		id, session, ttl, ok := w.join()
		if !ok {
			return
		}
		if !w.serveSession(id, session, ttl) {
			return
		}
		w.cfg.Logf("dsasimd-worker: fenced as %s; rejoining", id)
	}
}

// Close stops the worker: running attempts are revoked (each leaves a
// checkpoint for its next owner) and Run returns.
func (w *Worker) Close() { w.once.Do(func() { close(w.stopCh) }) }

// countFailure classifies one failed RPC into the retry/timeout
// tallies the next heartbeat reports.
func (w *Worker) countFailure(err error) {
	w.rpcRetries.Add(1)
	var ne net.Error
	if errors.Is(err, context.DeadlineExceeded) || (errors.As(err, &ne) && ne.Timeout()) {
		w.rpcTimeouts.Add(1)
	}
}

// fullJitter picks a uniformly random delay in (0, d] — the backoff
// shape that keeps a fenced fleet from reconverging in one wave when
// a coordinator restart drops every worker at once.
func fullJitter(d time.Duration) time.Duration {
	if d <= time.Millisecond {
		return time.Millisecond
	}
	return time.Millisecond + time.Duration(rand.Int63n(int64(d)))
}

// join obtains an identity and lease, retrying with full-jitter
// exponential backoff until it succeeds or the worker is closed.
func (w *Worker) join() (id, session string, ttl time.Duration, ok bool) {
	backoff := 2 * backoffBase
	for {
		var resp JoinResponse
		code, err := w.post(rpcTimeout, "/cluster/v1/join", JoinRequest{Capacity: w.cfg.Capacity}, &resp)
		if err == nil && code == http.StatusOK && resp.Worker != "" {
			return resp.Worker, resp.Session, time.Duration(resp.LeaseTTLMS) * time.Millisecond, true
		}
		if err != nil {
			w.countFailure(err)
			w.cfg.Logf("dsasimd-worker: join: %v (retrying)", err)
		} else {
			w.rpcRetries.Add(1)
			w.cfg.Logf("dsasimd-worker: join refused (%d, retrying)", code)
		}
		select {
		case <-w.stopCh:
			return "", "", 0, false
		case <-time.After(fullJitter(backoff)):
		}
		if backoff < backoffCap {
			backoff *= 2
		}
	}
}

// serveSession drives one lease lifetime: heartbeat at TTL/3 (sooner,
// with jittered backoff, after a failure), reconcile the response,
// self-fence at the end. Returns true to rejoin, false when the
// worker is closing.
func (w *Worker) serveSession(id, session string, ttl time.Duration) (rejoin bool) {
	ropts := w.cfg.Runner
	ropts.Workers = w.cfg.Capacity
	ropts.SnapshotDir = w.cfg.SnapshotDir
	ropts.OnProgress = w.onProgress
	pool := runner.NewPool(ropts)

	w.mu.Lock()
	w.id, w.session, w.seq = id, session, 0
	w.pool, w.running = pool, map[string]assignment{}
	w.mu.Unlock()
	defer w.fence(pool)

	w.cfg.Logf("dsasimd-worker: joined as %s (lease %s)", id, ttl)
	hb := ttl / 3
	if hb < 5*time.Millisecond {
		hb = 5 * time.Millisecond
	}
	// The lease clock runs from each heartbeat's *send* time: if the
	// coordinator saw the renewal any later than that, our view of the
	// deadline is only more conservative than its.
	leaseUntil := time.Now().Add(ttl)
	failures := 0
	for {
		sent := time.Now()
		resp, code, err := w.heartbeat(hb)
		sleep := hb
		switch {
		case err == nil && code == http.StatusConflict:
			// Fenced: the session nonce (or our whole lease) is dead on
			// the coordinator's side. Stop claiming anything and rejoin.
			w.cfg.Logf("dsasimd-worker: %s heartbeat fenced (409)", id)
			return true
		case err == nil && code == http.StatusOK:
			leaseUntil = sent.Add(ttl)
			failures = 0
			w.reconcile(id, pool, resp)
		case time.Now().After(leaseUntil):
			// Could not renew within our own TTL: the coordinator has
			// (or soon will have) expired us and reassigned our jobs.
			// Run nothing we cannot prove we still lease.
			w.cfg.Logf("dsasimd-worker: %s lease lapsed (%v)", id, err)
			return true
		default:
			// Transient failure: retry sooner than the normal cadence,
			// with full jitter so a partition heal doesn't synchronize
			// the fleet's renewals.
			if err != nil {
				w.countFailure(err)
				w.cfg.Logf("dsasimd-worker: heartbeat: %v", err)
			} else {
				w.rpcRetries.Add(1)
				w.cfg.Logf("dsasimd-worker: heartbeat: HTTP %d", code)
			}
			failures++
			d := backoffBase << uint(failures-1)
			if d > hb || d <= 0 {
				d = hb
			}
			sleep = fullJitter(d)
		}
		select {
		case <-w.stopCh:
			return false
		case <-time.After(sleep):
		}
	}
}

// heartbeat reports the running set and fetches the desired-state
// delta. Its RPC deadline is the heartbeat interval itself: a renewal
// that cannot complete within one cadence is worthless, and waiting
// longer only eats the lease.
func (w *Worker) heartbeat(interval time.Duration) (*HeartbeatResponse, int, error) {
	retries := w.rpcRetries.Load()
	timeouts := w.rpcTimeouts.Load()
	w.mu.Lock()
	w.seq++
	req := HeartbeatRequest{
		Worker:      w.id,
		Session:     w.session,
		Seq:         w.seq,
		RPCRetries:  retries,
		RPCTimeouts: timeouts,
	}
	for _, a := range w.running {
		req.Running = append(req.Running, RunningJob{Job: a.job, Epoch: a.epoch})
	}
	w.mu.Unlock()
	var resp HeartbeatResponse
	code, err := w.post(interval, "/cluster/v1/heartbeat", req, &resp)
	if err != nil {
		return nil, code, err
	}
	if code == http.StatusOK {
		// Delivered: retire the shipped tallies (new failures may have
		// accumulated concurrently; they ride the next heartbeat).
		w.rpcRetries.Add(^(retries - 1))
		w.rpcTimeouts.Add(^(timeouts - 1))
	}
	return &resp, code, nil
}

// reconcile applies a heartbeat's stop and start lists.
func (w *Worker) reconcile(id string, pool *runner.Pool, resp *HeartbeatResponse) {
	for _, job := range resp.Stop {
		w.cfg.Logf("dsasimd-worker: %s revoking %s (fenced)", id, job)
		pool.Revoke(job)
	}
	w.mu.Lock()
	var starts []Assignment
	for _, a := range resp.Start {
		// Never double-start: if the job is still unwinding from a
		// revocation (a stop and a re-start for the same job can ride
		// one response), wait for the next heartbeat to re-deliver.
		if _, ok := w.running[a.Job]; ok {
			continue
		}
		w.running[a.Job] = assignment{job: a.Job, epoch: a.Epoch}
		starts = append(starts, a)
	}
	w.mu.Unlock()
	for _, a := range starts {
		w.launch(id, pool, a)
	}
}

// launch runs one assignment on the pool in its own goroutine and
// reports the terminal result.
func (w *Worker) launch(id string, pool *runner.Pool, a Assignment) {
	w.jobWG.Add(1)
	go func() {
		defer w.jobWG.Done()
		defer func() {
			w.mu.Lock()
			delete(w.running, a.Job)
			w.mu.Unlock()
		}()
		res, ok := server.RunJob(context.Background(), pool, a.Job, a.Spec, a.Epoch, a.Resume)
		if !ok {
			// Not a result: the lease went away mid-run. The checkpoint
			// stays for the next owner; nothing to report.
			return
		}
		if res.ResumedFromStep > 0 {
			w.cfg.Logf("dsasimd-worker: %s resumed %s from step %d (epoch %d)", id, a.Job, res.ResumedFromStep, a.Epoch)
		}
		w.report(id, a, res)
	}()
}

// report posts a terminal result with a bounded full-jitter retry
// budget. A 409 means the write was fenced — the lease moved on — and
// a 404 that the job is gone; both are final. If the coordinator
// stays unreachable past the budget, the job is simply dropped from
// the running set: the next owner's re-run reproduces the same result
// (the simulation is deterministic), so convergence never depends on
// this one delivery.
func (w *Worker) report(id string, a Assignment, res server.ResultJSON) {
	req := CompleteRequest{Worker: id, Job: a.Job, Epoch: a.Epoch, Result: res}
	backoff := 2 * backoffBase
	for i := 0; i < completeAttempts; i++ {
		code, err := w.post(rpcTimeout, "/cluster/v1/complete", req, nil)
		if err == nil {
			switch code {
			case http.StatusOK:
				return
			case http.StatusConflict, http.StatusNotFound:
				w.cfg.Logf("dsasimd-worker: %s result for %s fenced (HTTP %d)", id, a.Job, code)
				return
			}
		}
		if err != nil {
			w.countFailure(err)
		} else {
			w.rpcRetries.Add(1)
		}
		select {
		case <-w.stopCh:
			return
		case <-time.After(fullJitter(backoff)):
		}
		if backoff < backoffCap {
			backoff *= 2
		}
	}
	w.cfg.Logf("dsasimd-worker: %s could not deliver result for %s; dropping (next owner re-runs)", id, a.Job)
}

// onProgress pushes a live sample under the job's lease epoch. Errors
// (including fencing) are ignored: progress is advisory, and a fenced
// job's revocation arrives with the next heartbeat.
func (w *Worker) onProgress(p runner.Progress) {
	w.mu.Lock()
	a, ok := w.running[p.Job]
	id := w.id
	w.mu.Unlock()
	if !ok {
		return
	}
	req := ProgressRequest{Worker: id, Job: p.Job, Epoch: a.epoch, Progress: server.ProgressFromRunner(p)}
	if _, err := w.post(rpcTimeout, "/cluster/v1/progress", req, nil); err != nil {
		var ne net.Error
		if errors.Is(err, context.DeadlineExceeded) || (errors.As(err, &ne) && ne.Timeout()) {
			w.rpcTimeouts.Add(1)
		}
	}
}

// fence ends a session: revoke every running attempt (each writes its
// final checkpoint and unwinds), wait for them, release the pool.
func (w *Worker) fence(pool *runner.Pool) {
	w.mu.Lock()
	for job := range w.running {
		pool.Revoke(job)
	}
	w.mu.Unlock()
	w.jobWG.Wait()
	pool.Close()
}

// post sends one JSON request under its own context deadline; out,
// when non-nil, receives a decoded 200 body. A decode failure (a
// truncated response, say) is reported as an error alongside the
// status code.
func (w *Worker) post(timeout time.Duration, path string, in, out any) (int, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return 0, err
	}
	idx := w.epIdx.Load()
	base := w.endpoints[int(idx%uint32(len(w.endpoints)))]
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		// Unreachable endpoint: the caller's existing backoff retries
		// the next one.
		w.rotate(idx)
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusServiceUnavailable || resp.StatusCode == http.StatusBadGateway {
		// A standby (or a draining/booting coordinator): rotate. Never
		// on 409/404/400/429 — those are the cluster's answer, not the
		// wrong endpoint's.
		w.rotate(idx)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, fmt.Errorf("decoding %s response: %w", path, err)
		}
	}
	return resp.StatusCode, nil
}
