// Command bench is the repository's benchmark. It drives the simulator
// in-process and the dsasimd service over HTTP under four workloads,
// checks every result against the golden digests or an in-process
// reference, and prints every metric BENCHMARK.json names as
// "name value unit" lines followed by one JSON result line.
//
// From the repository root:
//
//	bash bench/run.sh --workload sim-vector --seed 1 --seconds 15 --trace 0
//	cd bench && go run . -root .. -workload svc-standalone -seed 2 -trace 1
//	cd bench && go run . -root .. -compare A.jsonl B.jsonl
//
// An untraced run (-trace 0) reports the end-to-end metrics; a traced
// run (-trace 1) records spans around every call into a layer plus a
// CPU profile, writes both under -trace-dir, and reports the per-layer
// metrics. See README.md for what each metric and workload is for.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"
)

// workloadNames are the benchmark's workloads, in report order.
var workloadNames = []string{"sim-vector", "sim-dynamic", "svc-standalone", "svc-cluster"}

// setupRuns is how many times a run builds its workload; setup_s is the
// median. The last build is the one measured.
const setupRuns = 3

// p90Jobs is the fewest jobs the latency percentiles come from:
// job_p90_ms needs ten samples beyond the 90th percentile.
const p90Jobs = 100

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // repository root: the golden file lives under it
	traceDir string
}

func (c config) goldenPath() string {
	return filepath.Join(c.root, "internal", "experiments", "testdata", "golden_digests.json")
}

// workload is one benchmark workload, built by its setup function.
type workload interface {
	// keys are the (program, mode) jobs the workload issues.
	keys() []*jobKey
	// warmup runs untimed jobs through the system under test.
	warmup(c *collector)
	// load issues jobs for at least d and at least minJobs jobs (callers
	// ask for at least one full round of keys), recording spans into tr
	// when it is non-nil, and returns how long it ran.
	load(d time.Duration, minJobs int, tr *tracer, c *collector) time.Duration
	close()
}

func setupWorkload(cfg config) (workload, error) {
	switch cfg.workload {
	case "sim-vector":
		return setupSim(cfg, []string{"mm_32x32", "mm_64x64", "rgb_gray", "gaussian", "susan_e"}, false)
	case "sim-dynamic":
		return setupSim(cfg, []string{"q_sort", "dijkstra", "bit_count", "str_prep", "echo"}, true)
	case "svc-standalone":
		return setupSvc(cfg, false)
	case "svc-cluster":
		return setupSvc(cfg, true)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames, ", "))
}

// sample is one completed job's latency.
type sample struct {
	key  *jobKey
	wall time.Duration
}

// collector gathers a phase's outcomes; clients share it.
type collector struct {
	mu                sync.Mutex
	samples           []sample
	attempted, failed int
	mismatches        int // failed jobs whose output was wrong
	model             modelStats
	counts            dsaCounts
}

func newCollector() *collector { return &collector{model: modelStats{}} }

func (c *collector) ok(k *jobKey, wall time.Duration) {
	c.mu.Lock()
	c.attempted++
	c.samples = append(c.samples, sample{k, wall})
	c.mu.Unlock()
}

// fail records a failed job; mismatch marks a wrong output rather than
// a refused or failed request.
func (c *collector) fail(err error, mismatch bool) {
	c.mu.Lock()
	c.attempted++
	c.failed++
	if mismatch {
		c.mismatches++
	}
	c.mu.Unlock()
	fmt.Fprintf(os.Stderr, "bench: %v\n", err)
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run executes one benchmark run and returns its result. An error means
// the run could not be measured at all.
func run(cfg config) (*result, error) {
	// Set-up is everything before the timed load: the job table with its
	// references, the service, and the untimed warm-up jobs.
	var w workload
	var phases []*collector
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		if w != nil {
			w.close()
		}
		t0 := time.Now()
		var err error
		if w, err = setupWorkload(cfg); err != nil {
			return nil, err
		}
		c := newCollector()
		phases = append(phases, c)
		w.warmup(c)
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.close()

	d := time.Duration(cfg.seconds * float64(time.Second))
	values := map[string]float64{}
	var err error
	if cfg.trace {
		err = traced(cfg, w, d, values, &phases)
	} else {
		c := newCollector()
		phases = append(phases, c)
		w.load(d, len(w.keys()), nil, c)
		values["setup_s"] = median(setups)
		if err = eqMetrics(w.keys(), c.samples, values); err == nil {
			model := modelStats{}
			for _, p := range phases {
				model.merge(p.model)
			}
			err = model.metrics(values)
		}
	}
	if err != nil {
		return nil, err
	}

	res := &result{Correct: true, Metrics: map[string]metric{}}
	for _, p := range phases {
		res.Attempted += p.attempted
		res.Failed += p.failed
		if p.mismatches > 0 {
			res.Correct = false
		}
	}
	if cfg.trace {
		values["failed_ratio"] = float64(res.Failed) / float64(res.Attempted)
	}
	for _, m := range metricDefs(cfg.trace) {
		v, ok := values[m.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.name)
		}
		res.Metrics[m.name] = metric{v, m.unit}
	}
	return res, nil
}

// eqMetrics reports eq_msteps_s_<mode>: the scalar-equivalent steps of
// the mode's keys divided by the sum of each key's fastest job. On a
// host whose memory bandwidth swings between two regimes for seconds at
// a time, per-key minima repeat across runs where means and medians do
// not.
func eqMetrics(keys []*jobKey, samples []sample, out map[string]float64) error {
	for _, mode := range modes {
		rate, err := eqRate(keys, samples, mode)
		if err != nil {
			return err
		}
		out["eq_msteps_s_"+mode] = rate
	}
	return nil
}

// latencyMetrics reports the latency median and 90th percentile over
// every job, and the completion rate. They sit in the per-layer list:
// on the in-process workloads they move with the host's memory regime
// far more than any bound could allow.
func latencyMetrics(samples []sample, elapsed time.Duration, out map[string]float64) error {
	lat := make([]float64, len(samples))
	for i, s := range samples {
		lat[i] = ms(s.wall)
	}
	var err error
	if out["job_p50_ms"], err = percentile(lat, 0.5); err != nil {
		return err
	}
	if out["job_p90_ms"], err = percentile(lat, 0.9); err != nil {
		return err
	}
	out["jobs_s"] = float64(len(samples)) / elapsed.Seconds()
	return nil
}

// eqRate is the scalar-equivalent Msteps per second of the keys in mode
// ("" for all keys), timed by each key's fastest job.
func eqRate(keys []*jobKey, samples []sample, mode string) (float64, error) {
	best := map[*jobKey]time.Duration{}
	for _, s := range samples {
		if b, ok := best[s.key]; !ok || s.wall < b {
			best[s.key] = s.wall
		}
	}
	var steps uint64
	var wall time.Duration
	for _, k := range keys {
		if mode != "" && k.mode != mode {
			continue
		}
		b, ok := best[k]
		if !ok {
			return 0, fmt.Errorf("no completed job for %s", k)
		}
		steps += k.prog.eqSteps()
		wall += b
	}
	return float64(steps) / wall.Seconds() / 1e6, nil
}

// traced runs the traced variant: half the time untraced, which gives
// the latency percentiles and the baseline for trace_overhead_pct, half
// with spans and a CPU profile, then the in-process pass that yields
// the DSA counters, and the final-machine probes.
func traced(cfg config, w workload, d time.Duration, out map[string]float64, phases *[]*collector) error {
	dir := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base, c := newCollector(), newCollector()
	*phases = append(*phases, base, c)
	elapsed := w.load(d/2, max(p90Jobs, len(w.keys())), nil, base)
	if err := latencyMetrics(base.samples, elapsed, out); err != nil {
		return err
	}

	prof, err := os.Create(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return err
	}
	tr := newTracer()
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return err
	}
	w.load(d-d/2, len(w.keys()), tr, c)
	pprof.StopCPUProfile()
	if err := prof.Close(); err != nil {
		return err
	}
	untracedRate, err := eqRate(w.keys(), base.samples, "")
	if err != nil {
		return err
	}
	tracedRate, err := eqRate(w.keys(), c.samples, "")
	if err != nil {
		return err
	}
	out["trace_overhead_pct"] = 100 * (untracedRate/tracedRate - 1)

	pass := newCollector()
	*phases = append(*phases, pass)
	inProcessPass(w.keys(), tr, pass)
	pass.counts.metrics(out)
	if !tr.has("server.submit") {
		probe := newCollector()
		*phases = append(*phases, probe)
		if err := serviceProbe(w.keys(), cfg.seed, tr, probe); err != nil {
			return err
		}
	}
	if err := probes(w.keys(), dir, out); err != nil {
		return err
	}
	if out["peak_rss_mib"], err = peakRSSMiB(); err != nil {
		return err
	}

	for _, name := range spanMetrics {
		out[name+"_ms"] = median(tr.durations(name))
	}
	runMetrics(w.keys(), tr, out)

	samples, err := readProfile(prof.Name())
	if err != nil {
		return err
	}
	shares := bucketShares(samples)
	named := map[string]bool{}
	for _, b := range layerBuckets {
		named[b] = true
		out["self."+b+"_pct"] = shares[b]
	}
	out["self.other_pct"] = 0
	for b, share := range shares {
		if !named[b] {
			out["self.other_pct"] += share
		}
	}

	table := formatLayerTable(tr.layerTable()) + formatShares(shares)
	fmt.Print(table)
	return tr.writeTrace(dir, table)
}

// runMetrics derives host-speed ratios from each key's fastest run span.
func runMetrics(keys []*jobKey, tr *tracer, out map[string]float64) {
	scalar, dsaRun := tr.minByKey("cpu.run"), tr.minByKey("dsa.run")
	var steps uint64
	var wall time.Duration
	var overScalar, adaOverExt []float64
	seen := map[*program]bool{}
	for _, k := range keys {
		p := k.prog
		if seen[p] {
			continue
		}
		seen[p] = true
		key := func(mode string) string { return (&jobKey{p, mode}).String() }
		sc, okS := scalar[key("scalar")]
		ext, okE := dsaRun[key("extended")]
		ada, okA := dsaRun[key("adaptive")]
		if okS {
			steps += p.eqSteps()
			wall += sc
		}
		if okS && okE {
			overScalar = append(overScalar, ext.Seconds()/sc.Seconds())
		}
		if okE && okA {
			adaOverExt = append(adaOverExt, ada.Seconds()/ext.Seconds())
		}
	}
	if wall > 0 {
		out["cpu.msteps_s"] = float64(steps) / wall.Seconds() / 1e6
	}
	out["dsa.host_over_scalar"] = geomean(overScalar)
	out["adaptive.host_over_extended"] = geomean(adaOverExt)
}

func formatShares(shares map[string]float64) string {
	names := make([]string, 0, len(shares))
	for b := range shares {
		names = append(names, b)
	}
	sort.Slice(names, func(i, j int) bool { return shares[names[i]] > shares[names[j]] })
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %8s\n", "profile bucket", "self_%")
	for _, n := range names {
		fmt.Fprintf(&b, "%-24s %8.2f\n", n, shares[n])
	}
	return b.String()
}

// inProcessPass runs every key once in-process with the digest checks,
// noting model statistics and DSA counters of every run that finished.
func inProcessPass(keys []*jobKey, tr *tracer, c *collector) {
	for _, k := range keys {
		t0 := time.Now()
		o, err := runInProcess(tr, tr.newJob(), k, true)
		if err != nil {
			c.fail(err, true)
			continue
		}
		wall := time.Since(t0)
		c.mu.Lock()
		if k.prog.src == "" {
			c.model.note(k.prog.name, k.mode, o.ref.ticks, o.energyNJ())
		}
		if o.sys != nil {
			c.counts.add(o.sys.Stats())
		}
		c.mu.Unlock()
		if err := checkOutcome(k, o.ref, true); err != nil {
			c.fail(err, true)
			continue
		}
		c.ok(k, wall)
	}
}

// printResult writes the metric lines and the final JSON line.
func printResult(w io.Writer, res *result, defs []metricDef) error {
	for _, m := range defs {
		v := res.Metrics[m.name]
		fmt.Fprintf(w, "%s %v %s\n", m.name, v.Value, v.Unit)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// appendRecord appends the run to a JSON Lines file for -compare.
func appendRecord(path string, cfg config, res *result) error {
	b, err := json.Marshal(record{Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace, Result: *res})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	var cfg config
	var trace int
	var out string
	var compare bool
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for generated programs and the job order")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "how long to drive load")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.StringVar(&cfg.root, "root", ".", "repository root")
	flag.StringVar(&cfg.traceDir, "trace-dir", "", "where traced runs write spans, profile and layer table (default <root>/.bench_build/trace)")
	flag.StringVar(&out, "out", "", "append this run's result as a JSON line to the file, for -compare")
	flag.BoolVar(&compare, "compare", false, "compare two -out files against the bounds in <root>/BENCHMARK.json: bench -compare A.jsonl B.jsonl")
	flag.Parse()
	if compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two files")
			os.Exit(2)
		}
		if err := compareFiles(os.Stdout, filepath.Join(cfg.root, "BENCHMARK.json"), flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.trace = trace == 1
	if cfg.traceDir == "" {
		cfg.traceDir = filepath.Join(cfg.root, ".bench_build", "trace")
	}
	if cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive")
		os.Exit(2)
	}

	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	if err := printResult(os.Stdout, res, metricDefs(cfg.trace)); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	if out != "" {
		if err := appendRecord(out, cfg, res); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
	}
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "bench: outputs did not match the reference")
		os.Exit(1)
	}
}
