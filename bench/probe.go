package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cpu"
	"repro/internal/dsa"
	"repro/internal/energy"
	"repro/internal/server"
	"repro/internal/snapshot"
)

// probeReps is how many times each probe repeats; the median is kept.
const probeReps = 5

var errPause = errors.New("paused for snapshot")

// probeSink keeps the probed calls' results live.
var probeSink struct {
	digest uint64
	energy energy.Breakdown
	stats  *dsa.Stats
}

// probes times, on the workload's largest built-in program under the
// extended DSA, the calls a finished job makes on its way to a service
// result (memory digest, energy model, stats snapshot) and a snapshot
// round trip: SaveState half way, write the container file, read it,
// RestoreState into a fresh system and run on. The resumed run must
// match the golden row bit for bit.
func probes(keys []*jobKey, dir string, out map[string]float64) error {
	var p *program
	for _, k := range keys {
		if k.prog.src == "" && (p == nil || k.prog.eqSteps() > p.eqSteps()) {
			p = k.prog
		}
	}
	if p == nil {
		return fmt.Errorf("probes: no built-in program")
	}
	k := &jobKey{p, "extended"}
	o, err := runInProcess(nil, -1, k, false)
	if err != nil {
		return err
	}
	var digest, energyT, stats, save, restore []float64
	var size int64
	for i := 0; i < probeReps; i++ {
		// Results go to probeSink, or the compiler may drop the calls.
		t0 := time.Now()
		probeSink.digest = o.m.Mem.Sum64()
		digest = append(digest, ms(time.Since(t0)))
		if probeSink.digest != p.ref[k.mode].digest {
			return fmt.Errorf("probes: %s memory digest %016x, want %016x", k, probeSink.digest, p.ref[k.mode].digest)
		}

		t0 = time.Now()
		probeSink.energy = energy.Compute(energy.DefaultParams(), o.m.Counts,
			o.m.Caches.L1Stats(), o.m.Caches.L2Stats(), o.sys.Stats().EnergyEvents())
		energyT = append(energyT, float64(time.Since(t0))/float64(time.Microsecond))

		t0 = time.Now()
		probeSink.stats = o.sys.Stats().Snapshot()
		stats = append(stats, float64(time.Since(t0))/float64(time.Microsecond))

		sv, rs, n, err := snapshotRoundTrip(k, filepath.Join(dir, "probe.dsnp"))
		if err != nil {
			return err
		}
		save, restore, size = append(save, ms(sv)), append(restore, ms(rs)), n
	}
	out["mem.digest_ms"] = median(digest)
	out["energy.compute_us"] = median(energyT)
	out["dsa.stats_snapshot_us"] = median(stats)
	out["snapshot.save_ms"] = median(save)
	out["snapshot.restore_ms"] = median(restore)
	out["snapshot.bytes"] = float64(size)
	return nil
}

// snapshotRoundTrip runs k to half its steps, saves, restores into a
// fresh system and finishes the run there.
func snapshotRoundTrip(k *jobKey, path string) (save, restore time.Duration, size int64, err error) {
	cfg, _, err := server.ConfigByName(k.mode)
	if err != nil {
		return 0, 0, 0, err
	}
	want := k.prog.ref[k.mode]
	sys, err := dsa.NewSystem(k.prog.w.Scalar(), cpu.DefaultConfig(), cfg)
	if err != nil {
		return 0, 0, 0, err
	}
	k.prog.w.Setup(sys.M)
	sys.SetRunHook(func() error {
		if sys.M.Steps >= want.steps/2 {
			return errPause
		}
		return nil
	})
	if err := sys.Run(); !errors.Is(err, errPause) {
		return 0, 0, 0, fmt.Errorf("%s: run to snapshot point: %v", k, err)
	}

	t0 := time.Now()
	var w snapshot.Writer
	if err := sys.SaveState(&w); err != nil {
		return 0, 0, 0, err
	}
	if err := w.WriteFile(path); err != nil {
		return 0, 0, 0, err
	}
	save = time.Since(t0)
	fi, err := os.Stat(path)
	if err != nil {
		return 0, 0, 0, err
	}

	resumed, err := dsa.NewSystem(k.prog.w.Scalar(), cpu.DefaultConfig(), cfg)
	if err != nil {
		return 0, 0, 0, err
	}
	t0 = time.Now()
	r, err := snapshot.ReadFile(path)
	if err == nil {
		err = resumed.RestoreState(r)
	}
	restore = time.Since(t0)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("%s: restore: %w", k, err)
	}
	if err := resumed.Run(); err != nil {
		return 0, 0, 0, fmt.Errorf("%s: resumed run: %w", k, err)
	}
	if err := k.prog.w.Check(resumed.M); err != nil {
		return 0, 0, 0, fmt.Errorf("%s: resumed run: %w", k, err)
	}
	got := reference{ticks: resumed.M.Ticks, steps: resumed.M.Steps, digest: resumed.M.Mem.Sum64()}
	if err := checkOutcome(k, got, true); err != nil {
		return 0, 0, 0, fmt.Errorf("resumed run: %w", err)
	}
	return save, restore, fi.Size(), nil
}
