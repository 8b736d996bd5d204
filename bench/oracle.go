package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"

	"repro/internal/server"
)

// modes are the system setups every workload runs, by their service
// config names.
var modes = []string{"scalar", "original", "extended", "adaptive"}

// goldenModes maps a config name to its row name in the golden file.
var goldenModes = map[string]string{
	"scalar":   "arm-original",
	"original": "neon-dsa-original",
	"extended": "neon-dsa-extended",
	"adaptive": "neon-dsa-adaptive",
}

// reference is the expected outcome of one (program, mode) job.
type reference struct {
	ticks  int64
	steps  uint64
	digest uint64
}

// loadGoldens reads internal/experiments/testdata/golden_digests.json
// into workload → config name → reference.
func loadGoldens(path string) (map[string]map[string]reference, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f struct {
		Goldens []struct {
			Workload  string `json:"workload"`
			Mode      string `json:"mode"`
			MemDigest string `json:"mem_digest"`
			Ticks     int64  `json:"ticks"`
			Steps     uint64 `json:"steps"`
		} `json:"goldens"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]map[string]reference{}
	for _, g := range f.Goldens {
		for mode, row := range goldenModes {
			if g.Mode != row {
				continue
			}
			d, err := strconv.ParseUint(g.MemDigest, 16, 64)
			if err != nil {
				return nil, fmt.Errorf("%s: %s/%s digest: %w", path, g.Workload, g.Mode, err)
			}
			if out[g.Workload] == nil {
				out[g.Workload] = map[string]reference{}
			}
			out[g.Workload][mode] = reference{ticks: g.Ticks, steps: g.Steps, digest: d}
		}
	}
	return out, nil
}

// checkOutcome compares a job's (ticks, steps) and, when withDigest, its
// memory digest against want.
func checkOutcome(k *jobKey, got reference, withDigest bool) error {
	want := k.prog.ref[k.mode]
	if got.ticks != want.ticks || got.steps != want.steps || (withDigest && got.digest != want.digest) {
		return fmt.Errorf("%s: got ticks=%d steps=%d digest=%016x, want ticks=%d steps=%d digest=%016x",
			k, got.ticks, got.steps, got.digest, want.ticks, want.steps, want.digest)
	}
	return nil
}

// checkResult checks a service job's terminal result the same way.
func checkResult(k *jobKey, r *server.ResultJSON) error {
	d, err := strconv.ParseUint(r.MemDigest, 16, 64)
	if err != nil {
		return fmt.Errorf("%s: mem_digest %q: %w", k, r.MemDigest, err)
	}
	return checkOutcome(k, reference{ticks: r.Ticks, steps: r.Steps, digest: d}, true)
}
