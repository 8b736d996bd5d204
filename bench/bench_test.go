package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// readBenchmark loads the repository's BENCHMARK.json.
func readBenchmark(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestCatalogMatchesBenchmark holds BENCHMARK.json and the metrics the
// program reports together, name for name and unit for unit.
func TestCatalogMatchesBenchmark(t *testing.T) {
	spec := readBenchmark(t)
	for _, c := range []struct {
		what string
		spec []specMetric
		defs []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEndMetrics}, {"per_layer", spec.PerLayer, perLayerMetrics}} {
		var got, want []metricDef
		for _, m := range c.spec {
			got = append(got, metricDef{m.Name, m.Unit})
		}
		want = c.defs
		if !reflect.DeepEqual(got, want) {
			t.Errorf("BENCHMARK.json %s = %v,\nprogram reports %v", c.what, got, want)
		}
	}
	listed := map[string]bool{}
	for _, b := range layerBuckets {
		listed[b] = true
	}
	for _, r := range layerRules {
		if !listed[r.bucket] {
			t.Errorf("layer rule %q charges bucket %q, which layerBuckets does not report", r.prefix, r.bucket)
		}
	}
}

// TestWorkloadsPrintEveryMetric runs each workload briefly, untraced and
// traced, and checks the printed lines and the result line carry every
// metric BENCHMARK.json names, with its unit. -short runs the two
// in-process-and-standalone workloads only; the cluster's dispatch
// period makes its runs take tens of seconds.
func TestWorkloadsPrintEveryMetric(t *testing.T) {
	spec := readBenchmark(t)
	names := workloadNames
	if testing.Short() {
		names = []string{"sim-vector", "svc-standalone"}
	}
	for _, wl := range names {
		for _, traced := range []bool{false, true} {
			t.Run(wl+map[bool]string{false: "/untraced", true: "/traced"}[traced], func(t *testing.T) {
				cfg := config{workload: wl, seed: 1, seconds: 0.1, trace: traced, root: "..", traceDir: t.TempDir()}
				res, err := run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := spec.EndToEnd
				if traced {
					want = spec.PerLayer
				}
				var buf bytes.Buffer
				if err := printResult(&buf, res, metricDefs(traced)); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
				var last result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				printed := map[string]string{}
				for _, l := range lines[:len(lines)-1] {
					if f := strings.Fields(l); len(f) == 3 {
						printed[f[0]] = f[2]
					}
				}
				for _, m := range want {
					if printed[m.Name] != m.Unit {
						t.Errorf("line for %s: unit %q, want %q", m.Name, printed[m.Name], m.Unit)
					}
					if got, ok := last.Metrics[m.Name]; !ok || got.Unit != m.Unit || math.IsNaN(got.Value) {
						t.Errorf("result metric %s = %+v, want unit %s", m.Name, got, m.Unit)
					}
				}
				if traced {
					if other := res.Metrics["self.other_pct"].Value; other > 10 {
						t.Errorf("named profile buckets cover %.1f%% of samples, want >= 90%%", 100-other)
					}
					for _, f := range []string{"spans.json", "layers.txt", "cpu.pprof"} {
						if _, err := os.Stat(filepath.Join(cfg.traceDir, wl+"-seed1", f)); err != nil {
							t.Error(err)
						}
					}
				}
			})
		}
	}
}

// TestCorruptedGoldenFails: a golden row that disagrees with the
// simulator makes the run incorrect.
func TestCorruptedGoldenFails(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "internal", "experiments", "testdata", "golden_digests.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f map[string]any
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	corrupted := false
	for _, g := range f["goldens"].([]any) {
		row := g.(map[string]any)
		if row["workload"] == "rgb_gray" && row["mode"] == "neon-dsa-extended" {
			row["mem_digest"] = "0123456789abcdef"
			corrupted = true
		}
	}
	if !corrupted {
		t.Fatal("no rgb_gray extended row to corrupt")
	}
	root := t.TempDir()
	dir := filepath.Join(root, "internal", "experiments", "testdata")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	b, err = json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "golden_digests.json"), b, 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := run(config{workload: "sim-vector", seed: 1, seconds: 0.1, root: root})
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Fatalf("corrupted golden row passed: correct=%v failed=%d", res.Correct, res.Failed)
	}
}

// TestSeedDeterminism: the same seed gives the same generated sources
// and job sequence; another seed gives others.
func TestSeedDeterminism(t *testing.T) {
	if !reflect.DeepEqual(generate(1), generate(1)) {
		t.Error("generate(1) differs between calls")
	}
	if reflect.DeepEqual(generate(1), generate(2)) {
		t.Error("generate(1) and generate(2) are equal")
	}
	progs, err := generatedPrograms(1)
	if err != nil {
		t.Fatal(err)
	}
	keys := keysOf(progs, modes)
	sequence := func(seed int64) []string {
		d := newDeck(keys, seed)
		var out []string
		for i := 0; i < 3*len(keys); i++ {
			out = append(out, d.next().String())
		}
		return out
	}
	if !reflect.DeepEqual(sequence(1), sequence(1)) {
		t.Error("job sequence for seed 1 differs between decks")
	}
	if reflect.DeepEqual(sequence(1), sequence(2)) {
		t.Error("seeds 1 and 2 give the same job sequence")
	}
}

func TestPercentileAndQuartiles(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := percentile(xs[:999], 0.99); err == nil {
		t.Error("p99 of 999 samples accepted")
	}
	if v, err := percentile(xs, 0.99); err != nil || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990", v, err)
	}
	if _, err := percentile(xs[:99], 0.9); err == nil {
		t.Error("p90 of 99 samples accepted")
	}
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q2, q3 := quartiles(xs[:10]); q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

// TestBucketSharesSumTo100 profiles simulator work and checks the layer
// buckets account for every sample.
func TestBucketSharesSumTo100(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatal(err)
	}
	progs, err := generatedPrograms(3)
	for start := time.Now(); err == nil && time.Since(start) < 300*time.Millisecond; {
		_, err = runInProcess(nil, -1, &jobKey{progs[0], "extended"}, false)
	}
	pprof.StopCPUProfile()
	if cerr := f.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	samples, err := readProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("profile has no samples")
	}
	var sum float64
	for _, v := range bucketShares(samples) {
		sum += v
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("bucket shares sum to %v, want 100", sum)
	}
}
