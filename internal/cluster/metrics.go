package cluster

import (
	"strings"
	"sync"

	"repro/internal/server"
)

// clusterMetrics is the coordinator's Prometheus registry, hand-rolled
// like the server's: counters under one mutex (lease-protocol cadence,
// not per step), gauges sampled at scrape time.
type clusterMetrics struct {
	// jobs is the job-result family the coordinator's plane feeds,
	// rendered under the dsasimd_cluster_ prefix.
	jobs          *server.JobMetrics
	mu            sync.Mutex
	leasesGranted uint64
	leasesExpired uint64
	leasesRevoked uint64
	takeovers     uint64
	fencedWrites  uint64
	hbRejected    uint64
	rpcRetries    uint64
	rpcTimeouts   uint64
	// failovers counts this node's promotions from standby to leader;
	// replRejected counts replication pushes fenced with 409 (a deposed
	// or forged leader term). Both live here — not on the coordinator —
	// because they must survive the node's role flips.
	failovers    uint64
	replRejected uint64
}

func newClusterMetrics() *clusterMetrics {
	return &clusterMetrics{jobs: server.NewJobMetrics()}
}

func (m *clusterMetrics) inc(field *uint64) {
	m.mu.Lock()
	*field++
	m.mu.Unlock()
}

func (m *clusterMetrics) onLeaseGrant()  { m.inc(&m.leasesGranted) }
func (m *clusterMetrics) onLeaseExpire() { m.inc(&m.leasesExpired) }
func (m *clusterMetrics) onFencedWrite() { m.inc(&m.fencedWrites) }

func (m *clusterMetrics) onHeartbeatReject() { m.inc(&m.hbRejected) }

func (m *clusterMetrics) onFailover()          { m.inc(&m.failovers) }
func (m *clusterMetrics) onReplicationReject() { m.inc(&m.replRejected) }

// onRPCReport folds one accepted heartbeat's client-side fault deltas
// into the registry (workers have no scrape endpoint of their own).
func (m *clusterMetrics) onRPCReport(retries, timeouts uint64) {
	if retries == 0 && timeouts == 0 {
		return
	}
	m.mu.Lock()
	m.rpcRetries += retries
	m.rpcTimeouts += timeouts
	m.mu.Unlock()
}

func (m *clusterMetrics) onRevoke(n int) {
	m.mu.Lock()
	m.leasesRevoked += uint64(n)
	m.mu.Unlock()
}

func (m *clusterMetrics) onTakeover(n int) {
	m.mu.Lock()
	m.takeovers += uint64(n)
	m.mu.Unlock()
}

// clusterGauges are point-in-time values sampled at scrape.
type clusterGauges struct {
	workersLive int
	jobsPending int
	// inflight maps live worker ID → leased job count.
	inflight map[string]int
	// role is 1 on the leader (a solo coordinator is its own leader),
	// 0 on a warm standby.
	role int
	// replSeq is the replication watermark: the leader's last appended
	// delta sequence, or a standby's last applied one.
	replSeq uint64
	// replLag is staleness in seconds: on a standby, time since the
	// leader's last accepted push; on a leader, its most lagging
	// standby's time since last acknowledgment (0 with no peers).
	replLag float64
}

// render writes the registry in Prometheus text exposition format,
// deterministically ordered.
func (m *clusterMetrics) render(g clusterGauges) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var b strings.Builder
	gauge := func(name, help string, v any) { server.WriteMetric(&b, "gauge", name, help, v) }
	counter := func(name, help string, v uint64) { server.WriteMetric(&b, "counter", name, help, v) }

	gauge("dsasimd_cluster_role", "Coordinator role: 1 leader, 0 warm standby.", g.role)
	gauge("dsasimd_cluster_workers_live", "Workers holding a current lease.", g.workersLive)
	gauge("dsasimd_cluster_jobs_pending", "Jobs waiting for a worker assignment.", g.jobsPending)
	gauge("dsasimd_cluster_replication_seq", "Replication watermark: last delta appended (leader) or applied (standby).", g.replSeq)
	gauge("dsasimd_cluster_replication_lag_seconds", "Replication staleness: seconds since the last accepted push (standby) or the most lagging standby's last ack (leader).", g.replLag)
	server.WriteSeries(&b, "gauge", "dsasimd_cluster_worker_inflight", "Jobs currently leased, per live worker.", "worker", g.inflight)

	counter("dsasimd_cluster_leases_granted_total", "Worker leases granted at join.", m.leasesGranted)
	counter("dsasimd_cluster_leases_expired_total", "Worker leases that lapsed without renewal.", m.leasesExpired)
	counter("dsasimd_cluster_leases_revoked_total", "Job leases withdrawn from workers via heartbeat stop lists.", m.leasesRevoked)
	counter("dsasimd_cluster_takeovers_total", "Jobs reassigned after their owner's lease expired.", m.takeovers)
	counter("dsasimd_cluster_fenced_writes_total", "Stale-epoch completions and progress reports rejected with 409.", m.fencedWrites)
	counter("dsasimd_cluster_heartbeats_rejected_total", "Heartbeats rejected with 409: unknown worker, stale session nonce, or replayed sequence number.", m.hbRejected)
	counter("dsasimd_cluster_rpc_retries_total", "Failed worker RPC attempts (any cause), reported via heartbeats.", m.rpcRetries)
	counter("dsasimd_cluster_rpc_timeouts_total", "Worker RPC attempts that hit their context deadline, reported via heartbeats.", m.rpcTimeouts)
	counter("dsasimd_cluster_failovers_total", "Promotions of this node from standby to leader.", m.failovers)
	counter("dsasimd_cluster_replication_rejected_total", "Replication pushes fenced with 409: a deposed or forged leadership term.", m.replRejected)
	m.jobs.Render(&b, "dsasimd_cluster_")
	return b.String()
}
