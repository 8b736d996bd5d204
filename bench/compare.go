package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// record is one run in a -out file.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	Result   result `json:"result"`
}

// benchSpec is the part of BENCHMARK.json -compare needs.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// series groups each metric's values by workload, in file order.
func series(recs []record) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range recs {
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Result.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out
}

// verdict judges B against A for one metric. worse is the relative
// change of B's median in the metric's bad direction; wins is the share
// of runs paired in order that B wins, ties counting for neither.
//
// With a bound (an end-to-end metric), a side whose own quartile spread
// exceeds the bound leaves the comparison "unresolved", unless every B
// run beats every A run; otherwise B "regressed" when it is worse by
// more than the bound. Either way B "improved" only when it wins at
// least nine tenths of the pairs and the medians differ by more than
// A's quartile spread; without a bound the mirror image reads "worse".
func verdict(a, b []float64, lower bool, bound *float64) (worse, wins float64, v string) {
	better := func(x, y float64) bool {
		if lower {
			return x < y
		}
		return x > y
	}
	pairs, won := min(len(a), len(b)), 0
	for i := 0; i < pairs; i++ {
		if better(b[i], a[i]) {
			won++
		}
	}
	wins = float64(won) / float64(pairs)
	aq1, am, aq3 := quartiles(a)
	bq1, bm, bq3 := quartiles(b)
	if lower {
		worse = (bm - am) / math.Abs(am)
	} else {
		worse = (am - bm) / math.Abs(am)
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
		}
	}
	noisy := bound != nil && ((aq3-aq1)/math.Abs(am) > *bound || (bq3-bq1)/math.Abs(bm) > *bound)
	clear := math.Abs(bm-am) > aq3-aq1
	switch {
	case noisy && !allBetter:
		v = "unresolved"
	case bound != nil && worse > *bound:
		v = "regressed"
	case wins >= 0.9 && worse < 0 && clear:
		v = "improved"
	case bound == nil && wins <= 0.1 && worse > 0 && clear:
		v = "worse"
	default:
		v = "unchanged"
	}
	return worse, wins, v
}

// compareFiles prints, per workload and metric, both sides' quartiles,
// B's change and win fraction over the runs paired in file order, and
// the verdict against the bound in BENCHMARK.json. Collect A and B runs
// alternately so each pair shares the host's conditions.
func compareFiles(w io.Writer, specPath, aPath, bPath string) error {
	spec, err := readSpec(specPath)
	if err != nil {
		return err
	}
	ra, err := readRecords(aPath)
	if err != nil {
		return err
	}
	rb, err := readRecords(bPath)
	if err != nil {
		return err
	}
	sa, sb := series(ra), series(rb)
	var wls []string
	for wl := range sa {
		if sb[wl] != nil {
			wls = append(wls, wl)
		}
	}
	sort.Strings(wls)
	fmt.Fprintf(w, "%-15s %-34s %14s %14s %14s %14s %8s %6s  %s\n",
		"workload", "metric", "A_median", "A_iqr", "B_median", "B_iqr", "worse%", "wins", "verdict")
	for _, wl := range wls {
		for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
			a, b := sa[wl][m.Name], sb[wl][m.Name]
			if len(a) < 2 || len(b) < 2 {
				continue
			}
			worse, wins, v := verdict(a, b, m.Better == "lower", m.Bound)
			aq1, am, aq3 := quartiles(a)
			bq1, bm, bq3 := quartiles(b)
			fmt.Fprintf(w, "%-15s %-34s %14.6g %14.6g %14.6g %14.6g %8.2f %6.2f  %s\n",
				wl, m.Name, am, aq3-aq1, bm, bq3-bq1, 100*worse, wins, v)
		}
	}
	return nil
}
