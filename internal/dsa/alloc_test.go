package dsa

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/cpu"
)

// TestDSAStepZeroAlloc is the allocation-regression gate for the DSA
// watch path, mirroring the interpreter's TestStepZeroAlloc: once the
// loop cache is warm, a steady-state pass over a vectorizable loop —
// detection tap, cache hit, CID re-validation, checkpointed takeover,
// batched NEON chunks, single-element leftovers, commit — must not
// allocate. Every structure on that path (tracks, requests, journals,
// checkpoints, page buffers, element scratch) is pooled; a
// stray allocation per loop entry would drag GC work into exactly the
// per-entry cost the paper claims is negligible.
func TestDSAStepZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race")
	}
	// An outer loop re-entering the Fig. 25 vector-sum loop: the inner
	// loop is detected once, cached, and every later entry is the
	// steady-state watch path. n=37 is not a lane multiple, so each
	// takeover also runs the single-element leftover path. The program
	// is idempotent (v is fully rewritten per pass), so re-running it
	// from PC 0 measures the same work every time.
	prog, err := asm.Parse("dsa-hot", `
        mov   r8, #0          ; outer counter
outer:  mov   r5, #0x1000     ; &a
        mov   r10, #0x2000    ; &b
        mov   r2, #0x3000     ; &v
        mov   r0, #0          ; i
        mov   r4, #37         ; n (leftover remainder of 1 at 4 lanes)
loop:   ldr   r3, [r5], #4
        ldr   r1, [r10], #4
        add   r3, r3, r1
        str   r3, [r2], #4
        add   r0, r0, #1
        cmp   r0, r4
        blt   loop
        add   r8, r8, #1
        cmp   r8, #8
        blt   outer
        halt
`)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSystem(prog, cpu.DefaultConfig(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	seedVectorSum(s.M)

	rerun := func() {
		s.M.Halted = false
		s.M.PC = 0
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
	}
	// Warm up: populate the DSA cache and every pool (track,
	// request, checkpoint, journal pages, executor scratch).
	for i := 0; i < 5; i++ {
		rerun()
	}
	if s.Stats().Takeovers == 0 {
		t.Fatal("warmup produced no takeovers; the test is not exercising the watch path")
	}
	before := s.Stats().Takeovers
	avg := testing.AllocsPerRun(20, rerun)
	if s.Stats().Takeovers == before {
		t.Fatal("measured runs produced no takeovers")
	}
	if avg != 0 {
		t.Fatalf("steady-state DSA pass allocates: %v allocs per run, want 0", avg)
	}
}

// TestDSACacheHitSkipsDetection pins the cached watch path's counter
// behavior: once a loop's verdict is cached, every later entry is a
// DSA-cache hit that re-raises the takeover WITHOUT re-running the
// detection state machine — no verification-cache traffic, no new
// rejections — while the CIDP comparator charge (the energy model's
// honest cost: the hardware re-validates the dependency verdict on
// every entry) keeps accruing per entry.
func TestDSACacheHitSkipsDetection(t *testing.T) {
	prog := asm.MustAssemble("vsum-steady", vectorSumSrc)
	s, err := NewSystem(prog, cpu.DefaultConfig(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	seedVectorSum(s.M)
	rerun := func() {
		s.M.Halted = false
		s.M.PC = 0
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
	}
	// Stats embeds maps, so a struct copy would alias live state; snap
	// reduces everything compared below to scalars at snapshot time.
	type counters struct {
		hits, takeovers, vcache, rejections, compares uint64
		ticks                                         int64
	}
	snap := func() counters {
		st := s.Stats()
		var rej uint64
		for _, c := range st.RejectedReasons {
			rej += c
		}
		return counters{
			hits:       st.DSACacheHits,
			takeovers:  st.Takeovers,
			vcache:     st.VCacheAccesses,
			rejections: rej,
			compares:   st.CIDPCompares,
			ticks:      st.AnalysisTicks,
		}
	}
	rerun() // cold: full detection, analysis, verification
	warm := snap()
	if warm.takeovers == 0 {
		t.Fatal("cold run produced no takeover")
	}
	rerun() // first steady-state pass
	a := snap()
	rerun() // second steady-state pass
	b := snap()

	if a.hits <= warm.hits || b.hits <= a.hits {
		t.Errorf("cache hits must grow per entry: %d → %d → %d", warm.hits, a.hits, b.hits)
	}
	if a.takeovers <= warm.takeovers || b.takeovers <= a.takeovers {
		t.Errorf("takeovers must grow per entry: %d → %d → %d",
			warm.takeovers, a.takeovers, b.takeovers)
	}
	// Detection machinery is fully skipped: the verification cache is
	// only touched by the data-collection stage of a tracked loop.
	if a.vcache != warm.vcache || b.vcache != a.vcache {
		t.Errorf("steady-state entries must not touch the verification cache: %d → %d → %d",
			warm.vcache, a.vcache, b.vcache)
	}
	if a.rejections != warm.rejections || b.rejections != a.rejections {
		t.Errorf("steady-state entries must not produce rejections: %d → %d → %d",
			warm.rejections, a.rejections, b.rejections)
	}
	// The comparator charge still accrues per entry (each entry
	// re-validates the dependency verdict), and at exactly the steady-state
	// period: both warm passes charge the same deltas everywhere.
	if a.compares <= warm.compares {
		t.Errorf("CIDP compares must keep accruing on cache hits: %d → %d",
			warm.compares, a.compares)
	}
	if d1, d2 := a.compares-warm.compares, b.compares-a.compares; d1 != d2 {
		t.Errorf("steady-state CIDP charge not periodic: +%d then +%d", d1, d2)
	}
	if d1, d2 := a.ticks-warm.ticks, b.ticks-a.ticks; d1 != d2 {
		t.Errorf("steady-state analysis ticks not periodic: +%d then +%d", d1, d2)
	}
}
