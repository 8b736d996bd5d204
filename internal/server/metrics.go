package server

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// JobMetrics is the job-result metric family both planes export —
// hand-rolled, since the repo takes no dependencies: admission and
// completion counters, the adaptive-policy and energy totals, and
// fixed-bucket histograms, under one mutex (updates happen at
// job-lifecycle cadence, not per step).
type JobMetrics struct {
	mu        sync.Mutex
	submitted uint64
	rejected  uint64
	deduped   uint64
	completed map[string]uint64 // terminal status → count
	resumed   uint64
	retries   uint64
	// Adaptive-policy counters, summed over terminal jobs run with the
	// "adaptive" config (zero otherwise).
	policyKept      uint64
	policySuspended uint64
	policyTrialed   uint64
	// Modeled energy in nanojoules by component, summed over successful
	// terminal jobs.
	energyNJ   map[string]float64
	duration   *histogram // job wall time, seconds
	throughput *histogram // retired steps per wall second
}

// NewJobMetrics returns an empty family.
func NewJobMetrics() *JobMetrics {
	return &JobMetrics{
		completed: map[string]uint64{"ok": 0, "degraded": 0, "failed": 0},
		energyNJ: map[string]float64{
			"front_end": 0, "scalar": 0, "caches": 0, "neon": 0, "dsa": 0,
		},
		// Wall-time buckets: 1ms to ~2min in decades.
		duration: newHistogram(0.001, 0.01, 0.1, 0.5, 1, 5, 15, 60, 120),
		// Step-throughput buckets: 100k/s to 200M/s.
		throughput: newHistogram(1e5, 1e6, 5e6, 1e7, 5e7, 1e8, 2e8),
	}
}

func (m *JobMetrics) inc(field *uint64) {
	m.mu.Lock()
	*field++
	m.mu.Unlock()
}

// done folds one terminal result into the counters and histograms.
func (m *JobMetrics) done(r ResultJSON) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.completed[r.Status]++
	if r.Attempts > 1 {
		m.retries += uint64(r.Attempts - 1)
	}
	if r.ResumedFromStep > 0 {
		m.resumed++
	}
	sec := float64(r.WallNS) / 1e9
	m.duration.observe(sec)
	if sec > 0 && r.Steps > 0 {
		m.throughput.observe(float64(r.Steps) / sec)
	}
	m.policyKept += r.PolicyKept
	m.policySuspended += r.PolicySuspended
	m.policyTrialed += r.PolicyTrialed
	if r.Energy != nil {
		m.energyNJ["front_end"] += r.Energy.FrontEndNJ
		m.energyNJ["scalar"] += r.Energy.ScalarNJ
		m.energyNJ["caches"] += r.Energy.CachesNJ
		m.energyNJ["neon"] += r.Energy.NEONNJ
		m.energyNJ["dsa"] += r.Energy.DSANJ
	}
}

// Render appends the family to b with every name under prefix
// ("dsasimd_" for the standalone daemon, "dsasimd_cluster_" for the
// coordinator).
func (m *JobMetrics) Render(b *strings.Builder, prefix string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	WriteMetric(b, "counter", prefix+"jobs_submitted_total", "Jobs admitted.", m.submitted)
	WriteMetric(b, "counter", prefix+"jobs_rejected_total", "Submissions refused with 429 (full) or 503 (draining).", m.rejected)
	WriteMetric(b, "counter", prefix+"jobs_deduped_total", "Submissions replayed from an earlier job via Idempotency-Key.", m.deduped)
	WriteSeries(b, "counter", prefix+"jobs_completed_total", "Jobs finished, by terminal status.", "status", m.completed)
	WriteMetric(b, "counter", prefix+"jobs_resumed_total", "Terminal jobs whose run resumed from a checkpoint.", m.resumed)
	WriteMetric(b, "counter", prefix+"job_retries_total", "Extra attempts across all jobs (degradation reruns included).", m.retries)
	WriteMetric(b, "counter", prefix+"policy_takeovers_kept_total", "Adaptive-policy takeovers judged a win by the per-loop ledger.", m.policyKept)
	WriteMetric(b, "counter", prefix+"policy_takeovers_suspended_total", "Adaptive-policy suspensions (loops benched after repeated losses).", m.policySuspended)
	WriteMetric(b, "counter", prefix+"policy_takeovers_trialed_total", "Adaptive-policy trial entries granted to suspended loops.", m.policyTrialed)
	WriteSeries(b, "counter", prefix+"energy_nanojoules_total", "Modeled energy over successful jobs, by component.", "component", m.energyNJ)
	m.duration.render(b, prefix+"job_duration_seconds", "Terminal job wall time in seconds.")
	m.throughput.render(b, prefix+"job_steps_per_second", "Retired simulation steps per wall second, per terminal job.")
}

// WriteMetric appends one unlabeled series with its HELP and TYPE
// lines in Prometheus text exposition format (version 0.0.4).
func WriteMetric(b *strings.Builder, typ, name, help string, v any) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n%s %v\n", name, help, name, typ, name, v)
}

// WriteSeries appends one family with a series per label value, in
// label order, so the exposition is deterministic.
func WriteSeries[V any](b *strings.Builder, typ, name, help, label string, series map[string]V) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	keys := make([]string, 0, len(series))
	for k := range series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(b, "%s{%s=%q} %v\n", name, label, k, series[k])
	}
}

// histogram is a fixed-bucket Prometheus histogram.
type histogram struct {
	bounds []float64
	counts []uint64
	sum    float64
	total  uint64
}

func newHistogram(bounds ...float64) *histogram {
	return &histogram{bounds: bounds, counts: make([]uint64, len(bounds))}
}

func (h *histogram) observe(v float64) {
	for i, ub := range h.bounds {
		if v <= ub {
			h.counts[i]++
		}
	}
	h.sum += v
	h.total++
}

func (h *histogram) render(b *strings.Builder, name, help string) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	for i, ub := range h.bounds {
		fmt.Fprintf(b, "%s_bucket{le=%q} %d\n", name, formatBound(ub), h.counts[i])
	}
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", name, h.total)
	fmt.Fprintf(b, "%s_sum %g\n", name, h.sum)
	fmt.Fprintf(b, "%s_count %d\n", name, h.total)
}

func formatBound(v float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%f", v), "0"), ".")
}
