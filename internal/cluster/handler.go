package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/server"
)

// Handler returns the coordinator's HTTP API: the job plane's public
// routes (the same as the standalone daemon's, so clients don't care
// which they talk to) plus the worker-facing lease protocol under
// /cluster/v1/.
func (c *Coordinator) Handler() http.Handler { return c.mux }

func (c *Coordinator) routes() *http.ServeMux {
	mux := http.NewServeMux()
	c.plane.Routes(mux)
	mux.HandleFunc("POST /cluster/v1/join", c.handleJoin)
	mux.HandleFunc("POST /cluster/v1/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("POST /cluster/v1/complete", c.handleComplete)
	mux.HandleFunc("POST /cluster/v1/progress", c.handleProgress)
	return mux
}

// decodeBody decodes a protocol request, answering 400 on garbage.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(v); err != nil {
		server.HTTPError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return false
	}
	return true
}

func (c *Coordinator) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req JoinRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if c.draining.Load() {
		server.HTTPError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	if req.Capacity <= 0 {
		req.Capacity = 1
	}
	c.mu.Lock()
	c.nextWorker++
	we := &workerEntry{
		id:       fmt.Sprintf("w%04d", c.nextWorker),
		capacity: req.Capacity,
		deadline: time.Now().Add(c.cfg.LeaseTTL),
		session:  newSession(),
		jobs:     map[string]struct{}{},
	}
	c.workers[we.id] = we
	c.repWorkerLocked(we)
	c.assignLocked()
	c.repCountersLocked()
	c.saveStateLocked()
	c.mu.Unlock()
	c.metrics.onLeaseGrant()
	c.cfg.Logf("dsasimd: worker %s joined (capacity %d, session %s)", we.id, req.Capacity, we.session)
	server.WriteJSON(w, http.StatusOK, JoinResponse{Worker: we.id, Session: we.session, LeaseTTLMS: c.cfg.LeaseTTL.Milliseconds()})
}

// handleHeartbeat renews the worker's lease and reconciles its running
// set against the coordinator's desired state.
func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !decodeBody(w, r, &req) {
		return
	}
	resp := HeartbeatResponse{LeaseTTLMS: c.cfg.LeaseTTL.Milliseconds()}
	var started []*server.Job

	c.mu.Lock()
	we := c.workers[req.Worker]
	if we == nil {
		// Expired lease: the worker is a zombie until it self-fences
		// and rejoins under a fresh identity.
		c.mu.Unlock()
		c.metrics.onHeartbeatReject()
		server.HTTPError(w, http.StatusConflict, "no current lease: rejoin")
		return
	}
	if we.session != req.Session || req.Seq <= we.lastSeq {
		// Wrong session nonce, or a sequence number already accepted:
		// this is a delayed or duplicated heartbeat — possibly replayed
		// from a fenced predecessor session that reused the worker ID.
		// It must not renew the current lease, and it must not deliver
		// assignments to whoever sent it.
		c.mu.Unlock()
		c.metrics.onHeartbeatReject()
		c.cfg.Logf("dsasimd: heartbeat for %s rejected (session %q seq %d vs lease session %q seq %d)",
			req.Worker, req.Session, req.Seq, we.session, we.lastSeq)
		server.HTTPError(w, http.StatusConflict, "stale session or replayed heartbeat: rejoin")
		return
	}
	we.lastSeq = req.Seq
	we.deadline = time.Now().Add(c.cfg.LeaseTTL)
	// Fold the worker's client-side RPC fault tallies into /metrics.
	// This sits after the session/seq check on purpose: a duplicated
	// heartbeat must not double-count its deltas.
	c.metrics.onRPCReport(req.RPCRetries, req.RPCTimeouts)

	// The worker's reality: everything it runs without a current lease
	// gets a stop; everything leased that it isn't running gets a
	// start.
	running := make(map[string]uint64, len(req.Running))
	for _, rj := range req.Running {
		running[rj.Job] = rj.Epoch
		j := c.plane.Get(rj.Job)
		if j == nil || j.Owner != req.Worker || j.Epoch != rj.Epoch || server.Terminal(j.Status) {
			resp.Stop = append(resp.Stop, rj.Job)
			continue
		}
		if j.Status == server.StatusQueued {
			j.Status = server.StatusRunning
			j.Started = time.Now()
			c.repJobLocked(j)
			started = append(started, j)
		}
	}
	for jid := range we.jobs {
		j := c.plane.Get(jid)
		if j == nil || server.Terminal(j.Status) || j.Owner != req.Worker {
			delete(we.jobs, jid)
			continue
		}
		if ep, ok := running[jid]; ok && ep == j.Epoch {
			continue
		}
		resp.Start = append(resp.Start, Assignment{Job: jid, Epoch: j.Epoch, Spec: j.Spec, Resume: j.Resume})
	}
	c.mu.Unlock()

	if n := len(resp.Stop); n > 0 {
		c.metrics.onRevoke(n)
	}
	for _, j := range started {
		j.Events.Publish(server.Event{Type: "status", Job: j.ID, Status: server.StatusRunning})
	}
	server.WriteJSON(w, http.StatusOK, resp)
}

// handleComplete records a terminal result — exactly once. Any write
// that does not carry the job's current (owner, epoch) lease, or
// arrives after the job is already terminal, is fenced with 409.
func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if !decodeBody(w, r, &req) {
		return
	}
	c.mu.Lock()
	j := c.plane.Get(req.Job)
	if j == nil {
		c.mu.Unlock()
		server.HTTPError(w, http.StatusNotFound, "no such job")
		return
	}
	if server.Terminal(j.Status) || j.Owner != req.Worker || j.Epoch != req.Epoch {
		c.mu.Unlock()
		c.metrics.onFencedWrite()
		server.HTTPError(w, http.StatusConflict, "stale lease: result fenced")
		return
	}
	res := req.Result
	j.Finish(res)
	j.Owner = ""
	if we := c.workers[req.Worker]; we != nil {
		delete(we.jobs, req.Job)
	}
	c.repJobLocked(j)
	c.assignLocked() // a capacity slot just freed
	c.saveStateLocked()
	c.mu.Unlock()

	c.plane.Done(j, res)
	c.cfg.Logf("dsasimd: job %s %s (worker %s, epoch %d)", req.Job, res.Status, req.Worker, req.Epoch)
	server.WriteJSON(w, http.StatusOK, map[string]string{"status": "accepted"})
}

// handleProgress records a live sample, fenced like a completion.
func (c *Coordinator) handleProgress(w http.ResponseWriter, r *http.Request) {
	var req ProgressRequest
	if !decodeBody(w, r, &req) {
		return
	}
	c.mu.Lock()
	j := c.plane.Get(req.Job)
	if j == nil {
		c.mu.Unlock()
		server.HTTPError(w, http.StatusNotFound, "no such job")
		return
	}
	if server.Terminal(j.Status) || j.Owner != req.Worker || j.Epoch != req.Epoch {
		c.mu.Unlock()
		c.metrics.onFencedWrite()
		server.HTTPError(w, http.StatusConflict, "stale lease: progress fenced")
		return
	}
	p := req.Progress
	j.Progress = &p
	c.mu.Unlock()
	j.Events.Publish(server.Event{Type: "progress", Job: req.Job, Status: server.StatusRunning, Progress: &p})
	server.WriteJSON(w, http.StatusOK, map[string]string{"status": "accepted"})
}
