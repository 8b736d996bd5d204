package main

import (
	"fmt"
	"math"
	"sort"
	"syscall"
	"time"
)

// metricDef is one reported metric. The names and units here are the
// ones BENCHMARK.json lists; bench_test.go holds the two together.
type metricDef struct{ name, unit string }

// endToEndMetrics are reported by every untraced run.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"eq_msteps_s_scalar", "Msteps/s"},
	{"eq_msteps_s_original", "Msteps/s"},
	{"eq_msteps_s_extended", "Msteps/s"},
	{"eq_msteps_s_adaptive", "Msteps/s"},
	{"model_speedup_extended", "x"},
	{"model_speedup_adaptive", "x"},
	{"model_energy_saving_extended_pct", "%"},
}

// spanMetrics are the spans whose median duration is reported, in ms.
var spanMetrics = []string{
	"asm.assemble", "cpu.new", "workloads.setup", "cpu.run", "dsa.run", "workloads.check",
	"server.submit", "server.queue", "runner.attempt", "server.done_lag",
}

// perLayerMetrics are reported by every traced run. The first five are
// end to end in kind but too noisy on this benchmark's host to carry a
// bound (see README.md).
var perLayerMetrics = func() []metricDef {
	out := []metricDef{
		{"job_p50_ms", "ms"},
		{"job_p90_ms", "ms"},
		{"jobs_s", "1/s"},
		{"peak_rss_mib", "MiB"},
		{"failed_ratio", "ratio"},
	}
	for _, s := range spanMetrics {
		out = append(out, metricDef{s + "_ms", "ms"})
	}
	out = append(out,
		metricDef{"cpu.msteps_s", "Msteps/s"},
		metricDef{"dsa.host_over_scalar", "x"},
		metricDef{"adaptive.host_over_extended", "x"},
		metricDef{"dsa.observations", "count"},
		metricDef{"dsa.loops_detected", "count"},
		metricDef{"dsa.cidp_compares", "count"},
		metricDef{"dsa.cache_hit_ratio", "ratio"},
		metricDef{"dsa.rejections", "count"},
		metricDef{"dsa.takeovers", "count"},
		metricDef{"dsa.takeover_yield", "ratio"},
		metricDef{"dsa.vec_iters", "count"},
		metricDef{"dsa.fallbacks", "count"},
		metricDef{"dsa.analysis_ticks", "ticks"},
		metricDef{"policy.kept", "count"},
		metricDef{"policy.suspended", "count"},
		metricDef{"policy.trialed", "count"},
		metricDef{"mem.digest_ms", "ms"},
		metricDef{"energy.compute_us", "us"},
		metricDef{"dsa.stats_snapshot_us", "us"},
		metricDef{"snapshot.save_ms", "ms"},
		metricDef{"snapshot.restore_ms", "ms"},
		metricDef{"snapshot.bytes", "bytes"},
	)
	for _, b := range layerBuckets {
		out = append(out, metricDef{"self." + b + "_pct", "%"})
	}
	return append(out,
		metricDef{"self.other_pct", "%"},
		metricDef{"trace_overhead_pct", "%"},
	)
}()

// metricDefs is what a run reports: the end-to-end metrics untraced, the
// per-layer metrics traced.
func metricDefs(trace bool) []metricDef {
	if trace {
		return perLayerMetrics
	}
	return endToEndMetrics
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile returns the p-quantile (0 < p < 1) of xs by nearest rank.
// It refuses when fewer than ten samples lie beyond it, so a p99 needs
// at least 1000 samples.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if float64(n)*(1-p) < 10-1e-9 {
		return 0, fmt.Errorf("p%g needs %d samples, have %d", 100*p, int(math.Ceil(10/(1-p)-1e-9)), n)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[int(math.Ceil(p*float64(n)))-1], nil
}

// median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles computes what Python's statistics.quantiles(xs, n=4)
// returns (its default "exclusive" method), so spreads read the same
// here as in a Python check of the same runs. It needs two samples.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		m := i * (n + 1)
		j := min(max(m/4, 1), n-1)
		delta := float64(m - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// peakRSSMiB returns the process's peak resident set (Linux reports
// ru_maxrss in KiB; it is the same figure as VmHWM).
func peakRSSMiB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil
}
