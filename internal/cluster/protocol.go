// Package cluster scales dsasimd out to many worker processes under
// one coordinator. The coordinator owns the job table and hands out
// time-bounded leases; workers execute jobs on their runner pools and
// keep their leases alive by heartbeat. Every assignment carries a
// globally monotonic fencing epoch, stamped into checkpoint files and
// result submissions, so a worker that lost its lease — however long
// it stalls — can never corrupt state the new owner has taken over.
//
// The protocol is pull-only: workers have no HTTP listener. A
// heartbeat request carries the worker's running set; the response
// carries the desired-state delta (assignments to start, leases to
// stop) and the worker reconciles. A heartbeat with nothing to deliver
// is a long-poll: the coordinator holds it until an assignment for that
// worker wakes it, so a job reaches its worker within one round trip
// instead of at the next heartbeat. Failure detection is the absence
// of heartbeats: a lease that is not renewed within its TTL expires,
// and the dead worker's jobs are reassigned at higher epochs to the
// survivors, which resume from the highest-epoch checkpoint on the
// shared snapshot directory.
package cluster

import "repro/internal/server"

// JoinRequest is POST /cluster/v1/join: a new worker process asks for
// an identity and a lease. Rejoining after a fence means a fresh join
// — worker IDs are never reused.
type JoinRequest struct {
	// Capacity is how many jobs the worker runs concurrently.
	Capacity int `json:"capacity"`
}

// JoinResponse grants the lease.
type JoinResponse struct {
	// Worker is the coordinator-assigned identity; it namespaces the
	// worker's checkpoint files and authenticates its submissions.
	Worker string `json:"worker"`
	// Session is a nonce minted for this lease session. Every
	// heartbeat must present it: a heartbeat carrying a dead session's
	// nonce — a delayed duplicate from a fenced predecessor — is
	// rejected with 409 and can never renew a lease.
	Session string `json:"session"`
	// LeaseTTLMS is the lease duration. The worker gives each heartbeat
	// TTL/3 to answer; the coordinator holds one with nothing to
	// deliver for at most TTL/6.
	LeaseTTLMS int64 `json:"lease_ttl_ms"`
}

// RunningJob is one entry of a heartbeat's running set.
type RunningJob struct {
	Job   string `json:"job"`
	Epoch uint64 `json:"epoch"`
}

// HeartbeatRequest is POST /cluster/v1/heartbeat: renew the lease and
// report reality so the coordinator can compute the delta. A renewal
// is accepted only when (Worker, Session) name the current lease AND
// Seq is strictly above the last accepted one — the two checks that
// make delayed or duplicated heartbeats side-effect free.
type HeartbeatRequest struct {
	Worker string `json:"worker"`
	// Session is the join-time nonce of this lease session.
	Session string `json:"session"`
	// Seq increments on every heartbeat *send* (retries included), so
	// a network-duplicated or delayed copy of an already-processed
	// renewal is recognizable as a replay and rejected.
	Seq     uint64       `json:"seq"`
	Running []RunningJob `json:"running,omitempty"`
	// RPCRetries/RPCTimeouts carry the worker's client-side fault
	// tallies since its last *delivered* heartbeat. Workers have no
	// listener to scrape, so their RPC health rides the heartbeat and
	// the coordinator folds it into /metrics.
	RPCRetries  uint64 `json:"rpc_retries,omitempty"`
	RPCTimeouts uint64 `json:"rpc_timeouts,omitempty"`
}

// Assignment is one job the coordinator wants started, with everything
// the worker needs: the spec, the fencing epoch to stamp on writes,
// and whether to resume from a checkpoint.
type Assignment struct {
	Job   string         `json:"job"`
	Epoch uint64         `json:"epoch"`
	Spec  server.JobSpec `json:"spec"`
	// Resume marks a takeover or requeue: look for a checkpoint
	// (highest epoch at or below Epoch) before running from zero.
	Resume bool `json:"resume,omitempty"`
}

// HeartbeatResponse is the desired-state delta. A heartbeat the
// coordinator does not recognize — unknown worker, stale session
// nonce, or replayed sequence number — is answered 409 instead; the
// worker treats any 409 as a fence: self-revoke everything and join
// afresh under a new identity.
type HeartbeatResponse struct {
	LeaseTTLMS int64 `json:"lease_ttl_ms"`
	// Start lists assignments the worker should be running but is not.
	Start []Assignment `json:"start,omitempty"`
	// Stop lists job IDs the worker is running without a current
	// lease on (fenced: reassigned or completed elsewhere). The worker
	// revokes them; their attempts unwind with a final checkpoint.
	Stop []string `json:"stop,omitempty"`
}

// CompleteRequest is POST /cluster/v1/complete: a terminal result. The
// coordinator accepts it only if (worker, epoch) still hold the job's
// current lease and the job is not already terminal; anything else is
// 409 — the fencing that makes completion exactly-once.
type CompleteRequest struct {
	Worker string            `json:"worker"`
	Job    string            `json:"job"`
	Epoch  uint64            `json:"epoch"`
	Result server.ResultJSON `json:"result"`
}

// ProgressRequest is POST /cluster/v1/progress: a live sample, fenced
// like a completion (a zombie's progress must not overwrite the new
// owner's).
type ProgressRequest struct {
	Worker   string              `json:"worker"`
	Job      string              `json:"job"`
	Epoch    uint64              `json:"epoch"`
	Progress server.ProgressJSON `json:"progress"`
}
