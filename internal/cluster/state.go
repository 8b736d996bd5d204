package cluster

import (
	"time"

	"repro/internal/server"
)

// stateSection names the one section of the coordinator's state file —
// a snapshot-container file (CRC-validated, written atomically) whose
// JSON payload holds the job table, the lease table, and the counters.
// The epoch counter is the load-bearing part: fencing only works if a
// restarted coordinator never re-issues an epoch a zombie still holds.
const stateSection = "dsasimd.cluster"

type persistedWorker struct {
	ID       string `json:"id"`
	Capacity int    `json:"capacity"`
	// Session is the lease's nonce: it must survive a coordinator
	// restart so a still-live worker's next heartbeat renews its lease
	// instead of being rejected as a replay. It is replicated for the
	// same reason: a worker must survive a *failover* without rejoining.
	Session string `json:"session,omitempty"`
}

type clusterState struct {
	NextJob    uint64            `json:"next_job"`
	NextWorker uint64            `json:"next_worker"`
	NextEpoch  uint64            `json:"next_epoch"`
	Jobs       []server.JobRow   `json:"jobs"`
	Workers    []persistedWorker `json:"workers,omitempty"`
}

// exportStateLocked renders the coordinator's whole persisted state —
// the payload of both the state file and replication snapshot records.
// The caller must hold c.mu.
func (c *Coordinator) exportStateLocked() clusterState {
	st := clusterState{NextJob: c.plane.Issued, NextWorker: c.nextWorker, NextEpoch: c.nextEpoch, Jobs: c.plane.Rows()}
	for _, we := range c.workers {
		st.Workers = append(st.Workers, persistedWorker{ID: we.id, Capacity: we.capacity, Session: we.session})
	}
	return st
}

// saveStateLocked writes the coordinator's tables crash-consistently.
// The caller must hold c.mu. Failures are logged, never fatal.
func (c *Coordinator) saveStateLocked() {
	if c.cfg.StateFile == "" {
		return
	}
	if err := server.WriteState(c.cfg.StateFile, stateSection, c.leaderEpoch, c.exportStateLocked()); err != nil {
		c.cfg.Logf("dsasimd: saving cluster state: %v", err)
	}
}

// loadStateFile reads a coordinator state file: nil, nil when there is
// none; a bad one is quarantined and reported (server.ReadState).
func loadStateFile(path string) (*clusterState, error) {
	var st clusterState
	if found, err := server.ReadState(path, stateSection, &st); !found {
		return nil, err
	}
	return &st, nil
}

// restore loads a previous coordinator's tables from the state file.
func (c *Coordinator) restore() error {
	st, err := loadStateFile(c.cfg.StateFile)
	if st == nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.adoptStateLocked(st)
	c.cfg.Logf("dsasimd: restored %d job(s), %d worker lease(s) from %s (epoch counter %d)",
		len(st.Jobs), len(st.Workers), c.cfg.StateFile, st.NextEpoch)
	return nil
}

// adoptStateLocked installs a persisted state wholesale — from the
// state file on restart, or from the replicated mirror on a standby's
// promotion. Restored workers get a fresh grace deadline: if they are
// still alive their next heartbeat renews the same lease (their
// in-flight epochs stay valid); if they died during the outage, the
// grace TTL expires and takeover proceeds normally. The caller must
// hold c.mu.
func (c *Coordinator) adoptStateLocked(st *clusterState) {
	c.plane.Issued, c.nextWorker, c.nextEpoch = st.NextJob, st.NextWorker, st.NextEpoch
	grace := time.Now().Add(c.cfg.LeaseTTL)
	for _, pw := range st.Workers {
		// The sequence watermark is deliberately NOT carried over: the
		// state is not written per heartbeat, so a restored watermark
		// would be stale anyway. Accepting one replayed renewal inside
		// the grace window is harmless — replay rejection matters for
		// *fenced* sessions, whose nonces are gone from the table
		// entirely.
		c.workers[pw.ID] = &workerEntry{
			id:       pw.ID,
			capacity: pw.Capacity,
			deadline: grace,
			session:  pw.Session,
			jobs:     map[string]struct{}{},
		}
	}
	for _, j := range c.plane.Restore(st.Jobs) {
		if j.Owner == "" {
			continue
		}
		if we := c.workers[j.Owner]; we != nil {
			// The lease survives the restart; if the worker still runs
			// the job, its next heartbeat simply confirms it.
			we.jobs[j.ID] = struct{}{}
			j.Resume = true
		} else {
			// Owner not in the persisted lease table (crashed before
			// the last save): requeue for takeover.
			j.Owner = ""
			j.Resume = true
			j.Status = server.StatusQueued
		}
	}
}

// saveStandbyState persists a standby's mirror where the same node
// would keep its leader state, stamped with the leadership term it
// reflects — the best available starting point if the whole cluster
// restarts cold.
func saveStandbyState(path string, st *clusterState, leaderEpoch uint64) error {
	if path == "" {
		return nil
	}
	return server.WriteState(path, stateSection, leaderEpoch, st)
}
