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
	we := newWorkerEntry(fmt.Sprintf("w%04d", c.nextWorker), req.Capacity, newSession(), time.Now().Add(c.cfg.LeaseTTL))
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
// set against the coordinator's desired state. A heartbeat with
// nothing to deliver is a long-poll: it is held until an assignment
// wakes the worker's entry, the coordinator closes, the worker gives
// up on the request, or a sixth of the lease runs out. That limit is
// half the worker's heartbeat deadline (a third of the lease), so a
// held answer lands in time, and the lease, renewed on receipt, never
// lapses under a held request.
func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !decodeBody(w, r, &req) {
		return
	}
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
	resp := c.deltaLocked(we, req.Running)
	if len(resp.Start) == 0 && len(resp.Stop) == 0 {
		wake := we.wake
		c.mu.Unlock()
		hold := time.NewTimer(c.cfg.LeaseTTL / 6)
		select {
		case <-wake:
		case <-c.stopCh:
		case <-r.Context().Done():
		case <-hold.C:
		}
		hold.Stop()
		// The request that assigned a job holds c.mu until it has saved
		// the state, so a start is never delivered before its epoch is
		// durable. A newer heartbeat from the same worker supersedes
		// this one: that one gets the delta, and this one delivers
		// nothing.
		c.mu.Lock()
		if c.workers[req.Worker] == we && we.lastSeq == req.Seq {
			resp = c.deltaLocked(we, req.Running)
		}
	}
	c.mu.Unlock()

	if n := len(resp.Stop); n > 0 {
		c.metrics.onRevoke(n)
	}
	server.WriteJSON(w, http.StatusOK, resp)
}

// deltaLocked reconciles a worker's reported running set against the
// lease table. A queued job the worker runs under its current lease
// becomes running (its running event is published under the lock, so
// it always precedes the done event); an attempt without a current
// lease gets a stop; a leased job the worker does not run gets a start.
// The caller must hold c.mu.
func (c *Coordinator) deltaLocked(we *workerEntry, running []RunningJob) HeartbeatResponse {
	resp := HeartbeatResponse{LeaseTTLMS: c.cfg.LeaseTTL.Milliseconds()}
	epochs := make(map[string]uint64, len(running))
	for _, rj := range running {
		epochs[rj.Job] = rj.Epoch
		j := c.plane.Get(rj.Job)
		switch {
		case j != nil && server.Terminal(j.Status) && j.Epoch == rj.Epoch:
			// This very attempt's result is in (epochs name one
			// assignment): it is on its way out, with nothing to stop.
		case j == nil || j.Owner != we.id || j.Epoch != rj.Epoch || server.Terminal(j.Status):
			resp.Stop = append(resp.Stop, rj.Job)
		case j.Status == server.StatusQueued:
			j.Status = server.StatusRunning
			j.Started = time.Now()
			c.repJobLocked(j)
			j.Events.Publish(server.Event{Type: "status", Job: j.ID, Status: server.StatusRunning})
		}
	}
	for jid := range we.jobs {
		j := c.plane.Get(jid)
		if j == nil || server.Terminal(j.Status) || j.Owner != we.id {
			delete(we.jobs, jid)
			continue
		}
		if ep, ok := epochs[jid]; ok && ep == j.Epoch {
			continue
		}
		resp.Start = append(resp.Start, Assignment{Job: jid, Epoch: j.Epoch, Spec: j.Spec, Resume: j.Resume})
	}
	return resp
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
	unstarted := j.Status == server.StatusQueued
	j.Finish(res)
	if unstarted || j.Started.IsZero() {
		// No heartbeat reported this attempt running before its result
		// arrived (a job shorter than one round trip), or a restart or
		// promotion lost the start time (the state keeps none): date
		// the start back by the attempt's wall time, never before
		// admission.
		j.Started = j.Finished.Add(-time.Duration(res.WallNS))
		if j.Started.Before(j.Queued) {
			j.Started = j.Queued
		}
	}
	if unstarted {
		j.Events.Publish(server.Event{Type: "status", Job: j.ID, Status: server.StatusRunning})
	}
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
