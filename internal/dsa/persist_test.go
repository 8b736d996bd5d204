package dsa

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/armlite"
	"repro/internal/asm"
	"repro/internal/cpu"
	"repro/internal/snapshot"
	"repro/internal/workloads"
)

// runReplayingDecisions runs s to completion the way System.Run does.
// Whenever the DSA cache gains a vectorizable entry, before its
// takeover can touch it, the entry goes through the snapshot codec,
// which rebuilds it by replaying its decision inputs, and the rebuilt
// entry must equal the live one field for field. It returns the
// decisions checked, by kind.
func runReplayingDecisions(t *testing.T, s *System) map[LoopKind]int {
	t.Helper()
	seen := make(map[*CachedLoop]bool)
	checked := make(map[LoopKind]int)
	var rec cpu.Record
	for !s.M.Halted {
		misses := s.E.stats.DSACacheAccesses - s.E.stats.DSACacheHits
		if len(s.E.live) == 0 {
			before := s.M.Steps
			target, bpc, hit, err := s.M.RunToBackBranch()
			s.E.stats.Observations += s.M.Steps - before
			if err != nil {
				t.Fatal(err)
			}
			if hit {
				s.E.detectLoop(target, bpc)
			}
		} else {
			if err := s.M.Step(&rec); err != nil {
				t.Fatal(err)
			}
			s.E.Observe(&rec)
		}
		// Only a miss or an insert changes this difference.
		if s.E.stats.DSACacheAccesses-s.E.stats.DSACacheHits != misses {
			for _, cl := range s.E.Cache.entries {
				if !cl.Vectorizable || seen[cl] {
					continue
				}
				seen[cl] = true
				checkReplay(t, s, cl)
				checked[cl.Kind]++
			}
		}
		if req := s.E.TakeRequest(); req != nil {
			if err := s.guarded(req); err != nil {
				t.Fatal(err)
			}
			s.E.ReleaseRequest(req)
		}
	}
	return checked
}

// checkReplay round-trips one freshly decided entry through the cache
// codec and requires an identical rebuild.
func checkReplay(t *testing.T, s *System, cl *CachedLoop) {
	t.Helper()
	var enc snapshot.Enc
	encodeCachedLoop(&enc, cl)
	d := snapshot.NewDec(enc.Bytes())
	got, err := decodeCachedLoop(d, s.M.Prog, s.E.cfg)
	if err == nil {
		err = d.Done()
	}
	if err != nil {
		t.Fatalf("loop %d (%v): replay failed: %v", cl.LoopID, cl.Kind, err)
	}
	if !reflect.DeepEqual(got.Analysis, cl.Analysis) {
		t.Fatalf("loop %d (%v): replayed analysis differs:\n got: %+v\nwant: %+v", cl.LoopID, cl.Kind, got.Analysis, cl.Analysis)
	}
	if !reflect.DeepEqual(got, cl) {
		t.Fatalf("loop %d (%v): replayed cache entry differs:\n got: %+v\nwant: %+v", cl.LoopID, cl.Kind, got, cl)
	}
}

var replayConfigs = []struct {
	name string
	cfg  Config
}{
	{"original", OriginalConfig()},
	{"extended", DefaultConfig()},
	{"adaptive", AdaptiveConfig()},
}

// TestDecisionReplay checks that every vectorizable decision rebuilds
// exactly from its decision inputs, over the ten built-ins in every
// DSA mode and the package's conditional (guard-vectorized and mapped),
// sentinel and dynamic-range kernels.
func TestDecisionReplay(t *testing.T) {
	total := make(map[LoopKind]int)
	run := func(name string, prog *armlite.Program, cfg Config, setup func(*cpu.Machine), wantKind LoopKind) {
		t.Run(name, func(t *testing.T) {
			s, err := NewSystem(prog, cpu.DefaultConfig(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			setup(s.M)
			checked := runReplayingDecisions(t, s)
			if wantKind != KindUnknown && checked[wantKind] == 0 {
				t.Errorf("no %v decision checked (got %v)", wantKind, checked)
			}
			for k, n := range checked {
				total[k] += n
			}
		})
	}
	for _, w := range workloads.All() {
		for _, c := range replayConfigs {
			run(w.Name+"/"+c.name, w.Scalar(), c.cfg, w.Setup, KindUnknown)
		}
	}
	mapped := DefaultConfig()
	mapped.EnableGuardVec = false
	run("conditional/guard-vectorized", asm.MustAssemble("cond", conditionalSrc), DefaultConfig(), seedConditional, KindConditional)
	run("conditional/mapped", asm.MustAssemble("gvoff", mappedConditionalSrc), mapped, seedMappedConditional, KindConditional)
	run("sentinel", asm.MustAssemble("sentinel", sentinelSrc), DefaultConfig(), seedSentinel(40), KindSentinel)
	run("dynamic-range", asm.MustAssemble("dynrange", dynamicRangeSrc), DefaultConfig(), seedDynamicRange, KindDynamicRange)
	run("count", asm.MustAssemble("vsum", vectorSumSrc), DefaultConfig(), seedVectorSum, KindCount)
	t.Logf("decisions replayed: %v", total)
}

// midRunSnapshot runs prog and returns the snapshot taken at the first
// quiescent point where the DSA cache holds a vectorizable entry.
func midRunSnapshot(t testing.TB, prog *armlite.Program, cpuCfg cpu.Config, cfg Config, setup func(*cpu.Machine)) (*snapshot.Reader, *CachedLoop) {
	t.Helper()
	s, err := NewSystem(prog, cpuCfg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	setup(s.M)
	stop := errors.New("snapshot taken")
	var snap []byte
	var entry *CachedLoop
	s.SetRunHook(func() error {
		for _, cl := range s.E.Cache.entries {
			if cl.Vectorizable {
				var w snapshot.Writer
				if err := s.SaveState(&w); err != nil {
					return err
				}
				snap, entry = w.Bytes(), cl
				return stop
			}
		}
		return nil
	})
	if err := s.Run(); !errors.Is(err, stop) {
		t.Fatalf("run ended before a vectorizable entry was cached: %v", err)
	}
	r, err := snapshot.Parse(snap)
	if err != nil {
		t.Fatal(err)
	}
	return r, entry
}

// withSection re-frames r with one section's payload replaced.
func withSection(t *testing.T, r *snapshot.Reader, name string, payload []byte) *snapshot.Reader {
	t.Helper()
	var w snapshot.Writer
	for _, n := range r.Names() {
		p, err := r.Section(n)
		if err != nil {
			t.Fatal(err)
		}
		if n == name {
			p = payload
		}
		w.Add(n, p)
	}
	out, err := snapshot.Parse(w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRestoreRejectsUnreplayableEntry feeds RestoreState cache entries
// whose inputs cannot reach a vectorizable verdict for their loop. Each
// must fail restore with ErrCorrupt: a vectorizable entry that reached
// Run without an analysis would dereference nil at the loop's first
// cache hit.
func TestRestoreRejectsUnreplayableEntry(t *testing.T) {
	prog := asm.MustAssemble("vsum", vectorSumSrc)
	r, live := midRunSnapshot(t, prog, cpu.DefaultConfig(), DefaultConfig(), seedVectorSum)

	entry := func(mut func(cl *CachedLoop)) []byte {
		cl := *live
		mut(&cl)
		var e snapshot.Enc
		e.U32(1)
		encodeCachedLoop(&e, &cl)
		return e.Bytes()
	}
	cases := map[string][]byte{
		"vectorizable without inputs": noInputsCache(live),
		"records truncated before the verdict": entry(func(cl *CachedLoop) {
			cl.recs = cl.recs[:len(cl.recs)-1]
		}),
		"register files truncated": entry(func(cl *CachedLoop) {
			cl.regs = cl.regs[:len(cl.regs)-1]
		}),
		"mismatched loop ID":  entry(func(cl *CachedLoop) { cl.LoopID++ }),
		"mismatched kind":     entry(func(cl *CachedLoop) { cl.Kind = KindSentinel }),
		"record past the end": entry(func(cl *CachedLoop) { cl.recs = append(cl.recs[:len(cl.recs):len(cl.recs)], cl.recs[0]) }),
	}
	for name, payload := range cases {
		t.Run(name, func(t *testing.T) {
			s, err := NewSystem(prog, cpu.DefaultConfig(), DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			err = s.RestoreState(withSection(t, r, secCache, payload))
			if !errors.Is(err, snapshot.ErrCorrupt) {
				t.Fatalf("RestoreState = %v, want ErrCorrupt", err)
			}
		})
	}

	// The unmodified entry restores and the run finishes.
	s, err := NewSystem(prog, cpu.DefaultConfig(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RestoreState(withSection(t, r, secCache, entry(func(*CachedLoop) {}))); err != nil {
		t.Fatalf("intact entry: %v", err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// noInputsCache is a dsa.cache payload holding live's loop as a
// vectorizable entry with no decision inputs.
func noInputsCache(live *CachedLoop) []byte {
	var e snapshot.Enc
	e.U32(1)
	e.Int(live.LoopID)
	e.Int(int(live.Kind))
	e.Bool(true)
	e.Int(live.Analysis.BranchPC)
	e.U32(0)
	return e.Bytes()
}

// TestRestoreCacheOverCapacity: checkDSAConfig has already proven the
// capacity equal, so a larger claimed entry count is corruption, not a
// configuration mismatch.
func TestRestoreCacheOverCapacity(t *testing.T) {
	prog := asm.MustAssemble("vsum", vectorSumSrc)
	r, _ := midRunSnapshot(t, prog, cpu.DefaultConfig(), DefaultConfig(), seedVectorSum)
	s, err := NewSystem(prog, cpu.DefaultConfig(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var e snapshot.Enc
	e.U32(uint32(s.E.Cache.capacity + 1))
	err = s.RestoreState(withSection(t, r, secCache, e.Bytes()))
	if !errors.Is(err, snapshot.ErrCorrupt) || errors.Is(err, snapshot.ErrMismatch) {
		t.Fatalf("RestoreState = %v, want ErrCorrupt", err)
	}
}

// TestSkewedStrideMatchesSteps pins skewedStride's closed form to the
// one-fault-at-a-time rule it replaces on restore.
func TestSkewedStrideMatchesSteps(t *testing.T) {
	for _, stride := range []int64{-12, -8, -7, -4, -1, 1, 4, 9} {
		for _, size := range []int64{0, 1, 2, 4} {
			step := stride
			for n := int64(1); n <= 6; n++ {
				if step != 0 {
					step += size
				}
				if got := skewedStride(stride, size, n); got != step {
					t.Fatalf("skewedStride(%d, %d, %d) = %d, want %d", stride, size, n, got, step)
				}
			}
		}
	}
}

// fuzzBases are the real mid-run snapshots FuzzRestoreState wraps its
// inputs around: one per loop kind and DSA feature whose state the dsa
// sections carry. A small memory and step limit keep each restored run
// short.
var fuzzBases = []struct {
	name  string
	src   string
	setup func(*cpu.Machine)
	cfg   func() Config
}{
	{"count", vectorSumSrc, seedVectorSum, DefaultConfig},
	{"sentinel", sentinelSrc, seedSentinel(40), DefaultConfig},
	{"conditional", conditionalSrc, seedConditional, DefaultConfig},
	{"adaptive", vectorSumSrc, seedVectorSum, AdaptiveConfig},
	{"cidp-skew", vectorSumSrc, seedVectorSum, func() Config {
		c := DefaultConfig()
		c.Fault = FaultConfig{Kind: FaultSkewCIDP}
		return c
	}},
}

var fuzzCPU = func() cpu.Config {
	c := cpu.DefaultConfig()
	c.MaxSteps, c.MemBytes = 1<<20, 1<<16
	return c
}()

var dsaSections = []string{secEngine, secStats, secCache, secFaults, secPolicy}

// FuzzRestoreState feeds fuzzed dsa.* section payloads to RestoreState
// inside a valid container, next to a base's real machine sections, so
// the checksums pass and the inputs reach the decoders. A failure must
// be a typed snapshot error; a success must leave a system that runs.
// Seeds are the bases' own payloads and a vectorizable cache entry
// without decision inputs.
func FuzzRestoreState(f *testing.F) {
	type base struct {
		prog *armlite.Program
		cfg  Config
		snap *snapshot.Reader
	}
	bases := make([]base, len(fuzzBases))
	for i, b := range fuzzBases {
		prog := asm.MustAssemble(b.name, b.src)
		r, live := midRunSnapshot(f, prog, fuzzCPU, b.cfg(), b.setup)
		bases[i] = base{prog, b.cfg(), r}
		var p [5][]byte
		for j, name := range dsaSections {
			p[j], _ = r.Section(name)
		}
		f.Add(uint8(i), p[0], p[1], p[2], p[3], p[4])
		if i == 0 {
			f.Add(uint8(i), p[0], p[1], noInputsCache(live), p[3], p[4])
		}
	}
	f.Fuzz(func(t *testing.T, which uint8, engine, stats, cache, faults, policy []byte) {
		b := bases[int(which)%len(bases)]
		var w snapshot.Writer
		for _, name := range b.snap.Names() {
			if p, err := b.snap.Section(name); err == nil && !strings.HasPrefix(name, "dsa.") {
				w.Add(name, p)
			}
		}
		w.Add(secEngine, engine)
		w.Add(secStats, stats)
		w.Add(secCache, cache)
		if b.cfg.Fault.Kind != FaultNone {
			w.Add(secFaults, faults)
		}
		if b.cfg.EnablePolicy {
			w.Add(secPolicy, policy)
		}
		r, err := snapshot.Parse(w.Bytes())
		if err != nil {
			t.Fatalf("container: %v", err)
		}
		s, err := NewSystem(b.prog, fuzzCPU, b.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.RestoreState(r); err != nil {
			if !errors.Is(err, snapshot.ErrCorrupt) && !errors.Is(err, snapshot.ErrMismatch) &&
				!errors.Is(err, snapshot.ErrVersion) {
				t.Fatalf("untyped restore error: %v", err)
			}
			return
		}
		_ = s.Run() // may fail (e.g. the step limit); must not panic
	})
}
