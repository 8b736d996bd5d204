package experiments

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cpu"
	"repro/internal/dsa"
	"repro/internal/snapshot"
	"repro/internal/vectorize"
	"repro/internal/workloads"
)

// The interrupt/resume differential oracle: for every golden workload
// × mode, kill the run at a pseudo-random step, snapshot at the kill
// point, resume a freshly built machine from the snapshot bytes, and
// require the resumed run's final memory digest, tick count, step
// count and DSA fallback attribution to be bit-identical to the
// uninterrupted run's. Any divergence means the snapshot misses state
// or restores it wrong. DSA modes kill at four points per case: their
// snapshots carry the DSA cache, which restore rebuilds by replaying
// each cached loop's decision.
//
// The kill steps derive from DSASIM_RESUME_SEED (default 1) and are
// printed on failure so a miss reproduces exactly. In -short mode (and
// via DSASIM_RESUME_WORKLOADS=a,b,c) the sweep runs on a subset.

// errKill is the sentinel the run hook aborts with at the kill point.
var errKill = errors.New("resume oracle: killed")

// runState is the comparable residue of one completed run.
type runState struct {
	memSum uint64
	ticks  int64
	steps  uint64
	stats  *dsa.Stats // nil for machine-only modes
}

// sim abstracts the two execution shapes (bare machine vs DSA system)
// behind the save/restore/run surface the oracle needs.
type sim struct {
	m   *cpu.Machine
	sys *dsa.System
}

func buildSim(w *workloads.Workload, mode Mode) (*sim, error) {
	switch mode {
	case ModeScalar:
		m := cpu.MustNew(w.Scalar(), cpu.DefaultConfig())
		w.Setup(m)
		return &sim{m: m}, nil
	case ModeAutoVec:
		prog, _, err := vectorize.AutoVectorize(w.Scalar(), vectorize.Options{NoAlias: w.NoAlias})
		if err != nil {
			return nil, err
		}
		m := cpu.MustNew(prog, cpu.DefaultConfig())
		w.Setup(m)
		return &sim{m: m}, nil
	case ModeHand:
		prog := w.Scalar()
		if w.Hand != nil {
			prog = w.Hand()
		}
		m := cpu.MustNew(prog, cpu.DefaultConfig())
		w.Setup(m)
		return &sim{m: m}, nil
	case ModeDSAOrig, ModeDSAExt, ModeDSAAdaptive:
		cfg := dsa.DefaultConfig()
		switch mode {
		case ModeDSAOrig:
			cfg = dsa.OriginalConfig()
		case ModeDSAAdaptive:
			cfg = dsa.AdaptiveConfig()
		}
		s, err := dsa.NewSystem(w.Scalar(), cpu.DefaultConfig(), cfg)
		if err != nil {
			return nil, err
		}
		w.Setup(s.M)
		return &sim{m: s.M, sys: s}, nil
	default:
		return nil, fmt.Errorf("unknown mode %q", mode)
	}
}

// setHook installs the kill hook: at the system's quiescent points, or
// on a bare machine's host tap checked every step, so the kill lands
// exactly at the requested step.
func (s *sim) setHook(fn func() error) {
	if s.sys != nil {
		s.sys.SetRunHook(fn)
	} else {
		s.m.SetCancelCheck(fn, 1)
	}
}

func (s *sim) save(w *snapshot.Writer) error {
	if s.sys != nil {
		return s.sys.SaveState(w)
	}
	s.m.SaveState(w)
	return nil
}

func (s *sim) restore(r *snapshot.Reader) error {
	if s.sys != nil {
		return s.sys.RestoreState(r)
	}
	return s.m.RestoreState(r)
}

func (s *sim) run() error {
	if s.sys != nil {
		return s.sys.Run()
	}
	return s.m.Run(nil)
}

func (s *sim) state() *runState {
	st := &runState{memSum: s.m.Mem.Sum64(), ticks: s.m.Ticks, steps: s.m.Steps}
	if s.sys != nil {
		st.stats = s.sys.Stats().Snapshot()
	}
	return st
}

// checkedState is state after the workload's output check.
func (s *sim) checkedState(w *workloads.Workload) (*runState, error) {
	if err := w.Check(s.m); err != nil {
		return nil, fmt.Errorf("output check: %w", err)
	}
	return s.state(), nil
}

// resumeWorkloads picks the sweep set: the env override, a fast subset
// in -short mode, the whole suite otherwise.
func resumeWorkloads(t *testing.T) []*workloads.Workload {
	if env := os.Getenv("DSASIM_RESUME_WORKLOADS"); env != "" {
		var ws []*workloads.Workload
		for _, name := range strings.Split(env, ",") {
			w, err := workloads.ByName(strings.TrimSpace(name))
			if err != nil {
				t.Fatal(err)
			}
			ws = append(ws, w)
		}
		return ws
	}
	if testing.Short() {
		var ws []*workloads.Workload
		for _, name := range []string{"mm_32x32", "str_prep", "bit_count"} {
			w, err := workloads.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			ws = append(ws, w)
		}
		return ws
	}
	return workloads.All()
}

func resumeSeed() int64 {
	if env := os.Getenv("DSASIM_RESUME_SEED"); env != "" {
		var s int64
		if _, err := fmt.Sscan(env, &s); err == nil {
			return s
		}
	}
	return 1
}

func TestInterruptResumeOracle(t *testing.T) {
	seed := resumeSeed()
	modes := []Mode{ModeScalar, ModeAutoVec, ModeHand, ModeDSAOrig, ModeDSAExt, ModeDSAAdaptive}
	for _, w := range resumeWorkloads(t) {
		for _, mode := range modes {
			w, mode := w, mode
			t.Run(w.Name+"/"+string(mode), func(t *testing.T) {
				t.Parallel()
				testInterruptResume(t, w, mode, seed)
			})
		}
	}
}

// dumpFailedSnapshot preserves the kill-point snapshot for post-mortem
// when the oracle fails and DSASIM_RESUME_ARTIFACTS names a directory
// (CI uploads it as a build artifact).
func dumpFailedSnapshot(t *testing.T, name string, snap []byte) {
	t.Cleanup(func() {
		dir := os.Getenv("DSASIM_RESUME_ARTIFACTS")
		if !t.Failed() || dir == "" || snap == nil {
			return
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Logf("artifact dir: %v", err)
			return
		}
		path := filepath.Join(dir, name+".dsnp")
		if err := os.WriteFile(path, snap, 0o644); err != nil {
			t.Logf("artifact write: %v", err)
			return
		}
		t.Logf("kill-point snapshot preserved at %s", path)
	})
}

func testInterruptResume(t *testing.T, w *workloads.Workload, mode Mode, seed int64) {
	build := func() (*sim, error) { return buildSim(w, mode) }
	// Reference: the uninterrupted run.
	ref, err := build()
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.run(); err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}
	want, err := ref.checkedState(w)
	if err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}

	// Pick the kill steps inside the run, pseudo-randomly but
	// reproducibly per (seed, workload, mode).
	rng := rand.New(rand.NewSource(seed ^ int64(cpu.ProgramFingerprint(ref.m.Prog))))
	kills := 1
	if ref.sys != nil {
		kills = 4
	}
	for i := 0; i < kills; i++ {
		killStep := 1 + uint64(rng.Int63n(int64(want.steps)))
		label := fmt.Sprintf("seed=%d killStep=%d", seed, killStep)
		artifact := fmt.Sprintf("%s_%s_%d", w.Name, mode, killStep)
		// DSA modes postpone the hook to the next engine-quiescent
		// point, so the actual kill step may trail the requested one;
		// both are legitimate interruption points.
		got, _ := resumeAt(t, build, func(v *sim) bool { return v.m.Steps >= killStep }, label, artifact)
		if err := w.Check(got.m); err != nil {
			t.Fatalf("%s: resumed run: output check: %v", label, err)
		}
		compareRunState(t, label, want, got.state())
	}
}

// resumeAt runs a fresh simulation until kill first holds at a hook
// firing, snapshots there and aborts, then resumes another fresh
// simulation from the snapshot bytes and runs it to completion. It
// returns the finished simulation and whether it resumed: when the run
// halts before kill ever holds, the victim itself finishes (the
// interruption never happened, and the equality claim is vacuous but
// must still hold).
func resumeAt(t *testing.T, build func() (*sim, error), kill func(*sim) bool, label, artifact string) (*sim, bool) {
	t.Helper()
	victim, err := build()
	if err != nil {
		t.Fatal(err)
	}
	var snap []byte
	victim.setHook(func() error {
		if !kill(victim) {
			return nil
		}
		var sw snapshot.Writer
		if err := victim.save(&sw); err != nil {
			return fmt.Errorf("save at step %d: %w", victim.m.Steps, err)
		}
		snap = sw.Bytes()
		return errKill
	})
	err = victim.run()
	if err == nil {
		return victim, false
	}
	if !errors.Is(err, errKill) {
		t.Fatalf("%s: interrupted run died of the wrong cause: %v", label, err)
	}
	if snap == nil {
		t.Fatalf("%s: killed without a snapshot", label)
	}
	dumpFailedSnapshot(t, artifact, snap)

	resumed, err := build()
	if err != nil {
		t.Fatal(err)
	}
	rd, err := snapshot.Parse(snap)
	if err != nil {
		t.Fatalf("%s: parse snapshot: %v", label, err)
	}
	if err := resumed.restore(rd); err != nil {
		t.Fatalf("%s: restore: %v", label, err)
	}
	if err := resumed.run(); err != nil {
		t.Fatalf("%s: resumed run: %v", label, err)
	}
	return resumed, true
}

// TestInterruptResumeFaulted resumes runs whose silent cidp-skew faults
// leave skewed strides in the cached analyses (Verify off, so nothing
// rolls them back). The snapshot lands at the first quiescent point
// after the first fired fault; the resumed run must carry the residue
// forward and match the uninterrupted run. Outputs are wrong by design,
// so there is no output check.
func TestInterruptResumeFaulted(t *testing.T) {
	for _, name := range []string{"str_prep", "bit_count", "susan_e"} {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := dsa.DefaultConfig()
			cfg.Fault = dsa.FaultConfig{Kind: dsa.FaultSkewCIDP, EveryN: 3}
			build := func() (*sim, error) {
				s, err := dsa.NewSystem(w.Scalar(), cpu.DefaultConfig(), cfg)
				if err != nil {
					return nil, err
				}
				w.Setup(s.M)
				return &sim{m: s.M, sys: s}, nil
			}
			ref, err := build()
			if err != nil {
				t.Fatal(err)
			}
			if err := ref.run(); err != nil {
				t.Fatalf("uninterrupted run: %v", err)
			}
			if ref.sys.Faults().Fired == 0 {
				t.Fatal("no cidp-skew fault fired; the case exercises nothing")
			}
			fired := func(v *sim) bool { return v.sys.Faults().Fired > 0 }
			got, resumed := resumeAt(t, build, fired, "cidp-skew", name+"_cidp-skew")
			if !resumed {
				t.Fatal("the run halted before a quiescent point after the first fault")
			}
			compareRunState(t, "cidp-skew", ref.state(), got.state())
		})
	}
}

func compareRunState(t *testing.T, label string, want, got *runState) {
	t.Helper()
	if got.memSum != want.memSum {
		t.Errorf("%s: memory digest %016x, want %016x", label, got.memSum, want.memSum)
	}
	if got.ticks != want.ticks {
		t.Errorf("%s: ticks %d, want %d", label, got.ticks, want.ticks)
	}
	if got.steps != want.steps {
		t.Errorf("%s: steps %d, want %d", label, got.steps, want.steps)
	}
	if !reflect.DeepEqual(got.stats, want.stats) {
		t.Errorf("%s: DSA stats diverged:\n got: %+v\nwant: %+v", label, got.stats, want.stats)
	}
}
