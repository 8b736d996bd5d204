package dsa

import (
	"testing"

	"repro/internal/armlite"
	"repro/internal/asm"
	"repro/internal/cpu"
)

// TestConditionalMappedFallback exercises the per-iteration mapped
// execution mode (the paper's literal Fig. 21/22 mechanism): the guard
// uses TST, which the full-speculation extractor does not model, so the
// system falls back to scalar guards + array-map commits.
func TestConditionalMappedFallback(t *testing.T) {
	src := `
        mov   r5, #0x1000
        mov   r2, #0x3000
        mov   r0, #0
        mov   r4, #128
loop:   ldrb  r3, [r5, r0]
        tst   r3, #1
        beq   evenL
        add   r6, r3, #111
        mul   r6, r6, r3
        strb  r6, [r2, r0]
        b     endif
evenL:  sub   r6, r3, #7
        eor   r6, r6, #222
        strb  r6, [r2, r0]
endif:  add   r0, r0, #1
        cmp   r0, r4
        blt   loop
        halt
`
	prog := asm.MustAssemble("mapped", src)
	setup := func(m *cpu.Machine) {
		vals := make([]byte, 160)
		for i := range vals {
			vals[i] = byte(i*3 + 1)
		}
		m.Mem.WriteBytes(0x1000, vals)
	}
	ref := runScalar(t, prog, setup)
	s := runDSA(t, prog, DefaultConfig(), setup)
	wantB, _ := ref.Mem.ReadBytes(0x3000, 128)
	gotB, _ := s.M.Mem.ReadBytes(0x3000, 128)
	for i := range wantB {
		if wantB[i] != gotB[i] {
			t.Fatalf("mapped conditional byte %d = %d, want %d", i, gotB[i], wantB[i])
		}
	}
	st := s.Stats()
	if st.ByKind[KindConditional] != 1 {
		t.Fatalf("census=%v rejections=%v", st.ByKind, st.RejectedReasons)
	}
	entry, _ := s.E.Cache.Lookup(prog.Labels["loop"])
	if entry.Analysis.Cond.Vec != nil {
		t.Fatal("tst guard must not be full-speculation vectorizable")
	}
	if st.ArrayMapAccesses == 0 {
		t.Error("mapped mode must exercise the array maps")
	}
}

// TestConditionalVecMode confirms the full-speculation mode engages for
// a cmp-guarded conditional and reports the vectorized guard plan.
func TestConditionalVecMode(t *testing.T) {
	prog := asm.MustAssemble("cond", conditionalSrc)
	s := runDSA(t, prog, DefaultConfig(), seedConditional)
	entry, ok := s.E.Cache.Lookup(prog.Labels["loop"])
	if !ok {
		t.Fatal("not cached")
	}
	cv := entry.Analysis.Cond.Vec
	if cv == nil {
		t.Fatal("cmp guard should enable full speculation")
	}
	if cv.Taken == nil || cv.Fall == nil {
		t.Fatal("both arms should be present for if/else")
	}
	if cv.Cond != armlite.CondLE {
		t.Errorf("taken condition = %v, want le", cv.Cond)
	}
}

// TestCountDownLoop: subs/bne loop closing (the flag-setter is the
// induction update itself).
func TestCountDownLoop(t *testing.T) {
	src := `
        mov   r5, #0x1000
        mov   r2, #0x3000
        mov   r0, #77
loop:   ldr   r3, [r5], #4
        add   r3, r3, #9
        str   r3, [r2], #4
        subs  r0, r0, #1
        bne   loop
        halt
`
	prog := asm.MustAssemble("countdown", src)
	ref := runScalar(t, prog, seedVectorSum)
	s := runDSA(t, prog, DefaultConfig(), seedVectorSum)
	checkWords(t, ref, s.M, 0x3000, 77, "countdown out")
	if s.M.R[armlite.R0] != 0 {
		t.Errorf("counter = %d, want 0", s.M.R[armlite.R0])
	}
	if s.Stats().Takeovers != 1 {
		t.Fatalf("takeovers=%d rejections=%v", s.Stats().Takeovers, s.Stats().RejectedReasons)
	}
}

// TestUnsignedLoopBound: unsigned compare conditions (blo) derive trip
// counts too.
func TestUnsignedLoopBound(t *testing.T) {
	src := `
        mov   r5, #0x1000
        mov   r2, #0x3000
        mov   r0, #0
        mov   r4, #60
loop:   ldr   r3, [r5], #4
        eor   r3, r3, #0xFF
        str   r3, [r2], #4
        add   r0, r0, #1
        cmp   r0, r4
        blo   loop
        halt
`
	prog := asm.MustAssemble("unsigned", src)
	ref := runScalar(t, prog, seedVectorSum)
	s := runDSA(t, prog, DefaultConfig(), seedVectorSum)
	checkWords(t, ref, s.M, 0x3000, 60, "unsigned out")
	if s.Stats().Takeovers != 1 {
		t.Fatalf("takeovers=%d rejections=%v", s.Stats().Takeovers, s.Stats().RejectedReasons)
	}
}

// TestMixedWidthRejected: byte loads feeding word stores must reject
// with the Table 1 line 9 reason.
func TestMixedWidthRejected(t *testing.T) {
	src := `
        mov   r5, #0x1000
        mov   r2, #0x3000
        mov   r0, #0
loop:   ldrb  r3, [r5], #1
        str   r3, [r2], #4
        add   r0, r0, #1
        cmp   r0, #40
        blt   loop
        halt
`
	prog := asm.MustAssemble("mixed", src)
	ref := runScalar(t, prog, seedVectorSum)
	s := runDSA(t, prog, DefaultConfig(), seedVectorSum)
	checkWords(t, ref, s.M, 0x3000, 40, "mixed out")
	if s.Stats().Takeovers != 0 {
		t.Error("mixed widths must not vectorize")
	}
	if s.Stats().RejectedReasons["mixed-element-widths"] == 0 {
		t.Errorf("rejections = %v", s.Stats().RejectedReasons)
	}
}

// TestCarryAroundScalarRejected: an accumulator register carried across
// iterations (Table 1 line 5).
func TestCarryAroundScalarRejected(t *testing.T) {
	src := `
        mov   r5, #0x1000
        mov   r2, #0x3000
        mov   r0, #0
        mov   r7, #0
loop:   ldr   r3, [r5], #4
        add   r7, r7, r3
        str   r7, [r2], #4
        add   r0, r0, #1
        cmp   r0, #50
        blt   loop
        halt
`
	prog := asm.MustAssemble("carry", src)
	ref := runScalar(t, prog, seedVectorSum)
	s := runDSA(t, prog, DefaultConfig(), seedVectorSum)
	checkWords(t, ref, s.M, 0x3000, 50, "carry out")
	if s.Stats().Takeovers != 0 {
		t.Error("prefix-sum must not vectorize")
	}
}

// TestNonContiguousRejected: stride-8 access (every other element) is
// the paper's "indirect addressing / no NEON pattern" case.
func TestNonContiguousRejected(t *testing.T) {
	src := `
        mov   r5, #0x1000
        mov   r2, #0x3000
        mov   r0, #0
loop:   ldr   r3, [r5], #8
        add   r3, r3, #1
        str   r3, [r2], #4
        add   r0, r0, #1
        cmp   r0, #30
        blt   loop
        halt
`
	prog := asm.MustAssemble("stride", src)
	ref := runScalar(t, prog, seedVectorSum)
	s := runDSA(t, prog, DefaultConfig(), seedVectorSum)
	checkWords(t, ref, s.M, 0x3000, 30, "stride out")
	if s.Stats().Takeovers != 0 {
		t.Error("non-unit stride must not vectorize")
	}
	if s.Stats().RejectedReasons["non-contiguous-access"] == 0 {
		t.Errorf("rejections = %v", s.Stats().RejectedReasons)
	}
}

// TestVCacheOverflowRejected: an iteration touching more addresses than
// the 1 kB verification cache holds.
func TestVCacheOverflowRejected(t *testing.T) {
	// One iteration performs 8 memory accesses; shrink the V-cache to
	// 4 entries to force the overflow.
	src := `
        mov   r5, #0x1000
        mov   r6, #0x2000
        mov   r7, #0x3000
        mov   r8, #0x4000
        mov   r2, #0x5000
        mov   r0, #0
loop:   ldr   r3, [r5], #4
        ldr   r4, [r6], #4
        add   r3, r3, r4
        ldr   r4, [r7], #4
        add   r3, r3, r4
        ldr   r4, [r8], #4
        add   r3, r3, r4
        str   r3, [r2], #4
        add   r0, r0, #1
        cmp   r0, #40
        blt   loop
        halt
`
	prog := asm.MustAssemble("vcache", src)
	cfg := DefaultConfig()
	cfg.VCacheBytes = 4 * vcacheEntrySize
	ref := runScalar(t, prog, seedVectorSum)
	s := runDSA(t, prog, cfg, seedVectorSum)
	checkWords(t, ref, s.M, 0x5000, 40, "vcache out")
	if s.Stats().Takeovers != 0 {
		t.Error("overflowing loop must not vectorize")
	}
	if s.Stats().VCacheOverflows == 0 {
		t.Errorf("rejections = %v", s.Stats().RejectedReasons)
	}
	// With the paper's 1 kB V-cache the same loop fits and vectorizes.
	s2 := runDSA(t, prog, DefaultConfig(), seedVectorSum)
	checkWords(t, ref, s2.M, 0x5000, 40, "vcache ok out")
	if s2.Stats().Takeovers != 1 {
		t.Errorf("takeovers=%d rejections=%v", s2.Stats().Takeovers, s2.Stats().RejectedReasons)
	}
}

// TestPredicatedBodyRejected: conditionally executed data processing
// inside the body (no branch, cond suffix) is not extractable.
func TestPredicatedBodyRejected(t *testing.T) {
	src := `
        mov   r5, #0x1000
        mov   r2, #0x3000
        mov   r0, #0
loop:   ldr   r3, [r5], #4
        cmp   r3, #50
        addge r3, r3, #5
        str   r3, [r2], #4
        add   r0, r0, #1
        cmp   r0, #40
        blt   loop
        halt
`
	prog := asm.MustAssemble("pred", src)
	ref := runScalar(t, prog, seedVectorSum)
	s := runDSA(t, prog, DefaultConfig(), seedVectorSum)
	checkWords(t, ref, s.M, 0x3000, 40, "pred out")
	if s.Stats().Takeovers != 0 {
		t.Errorf("predicated body must not vectorize; rejections=%v", s.Stats().RejectedReasons)
	}
}

// TestInvariantLoadBroadcast: a loop-invariant load (stride 0) becomes
// a broadcast, like the paper's function-loop scaling constants.
func TestInvariantLoadBroadcast(t *testing.T) {
	src := `
        mov   r5, #0x1000
        mov   r2, #0x3000
        mov   r7, #0x2000    ; &scale (same address every iteration)
        mov   r0, #0
loop:   ldr   r3, [r5], #4
        ldr   r4, [r7]
        mul   r3, r3, r4
        str   r3, [r2], #4
        add   r0, r0, #1
        cmp   r0, #50
        blt   loop
        halt
`
	prog := asm.MustAssemble("invload", src)
	setup := func(m *cpu.Machine) {
		seedVectorSum(m)
		m.Mem.Store(0x2000, 4, 7)
	}
	ref := runScalar(t, prog, setup)
	s := runDSA(t, prog, DefaultConfig(), setup)
	checkWords(t, ref, s.M, 0x3000, 50, "invariant load out")
	if s.Stats().Takeovers != 1 {
		t.Fatalf("takeovers=%d rejections=%v", s.Stats().Takeovers, s.Stats().RejectedReasons)
	}
}

// TestSentinelExitFirstIteration: the terminator is the very first
// element — the loop exits before any analysis completes.
func TestSentinelExitFirstIteration(t *testing.T) {
	prog := asm.MustAssemble("sentinel", sentinelSrc)
	setup := seedSentinel(0)
	ref := runScalar(t, prog, setup)
	s := runDSA(t, prog, DefaultConfig(), setup)
	if s.M.R[armlite.R2] != ref.R[armlite.R2] {
		t.Errorf("dst cursor = %#x, want %#x", s.M.R[armlite.R2], ref.R[armlite.R2])
	}
	if s.Stats().Takeovers != 0 {
		t.Error("no takeover possible on a zero-length string")
	}
}

// TestNestedLoopsInnerVectorizedEachEntry: the MM-style pattern — the
// inner loop re-vectorizes on every outer iteration through the cache.
func TestNestedLoopsInnerVectorizedEachEntry(t *testing.T) {
	src := `
        mov   r8, #0
        mov   r2, #0x3000
outer:  mov   r5, #0x1000
        mov   r0, #0
inner:  ldr   r3, [r5], #4
        add   r3, r3, r8
        str   r3, [r2], #4
        add   r0, r0, #1
        cmp   r0, #24
        blt   inner
        add   r8, r8, #1
        cmp   r8, #5
        blt   outer
        halt
`
	prog := asm.MustAssemble("nested", src)
	ref := runScalar(t, prog, seedVectorSum)
	s := runDSA(t, prog, DefaultConfig(), seedVectorSum)
	checkWords(t, ref, s.M, 0x3000, 24*5, "nested out")
	st := s.Stats()
	if st.Takeovers != 5 {
		t.Errorf("takeovers = %d, want 5 (one per outer iteration)", st.Takeovers)
	}
	if st.ByKind[KindNested] != 1 || st.ByKind[KindCount] != 1 {
		t.Errorf("census = %v", st.ByKind)
	}
	// r8 is loop-variant across entries but invariant within one entry:
	// the broadcast must be refreshed per entry.
	if st.DSACacheHits < 4 {
		t.Errorf("cache hits = %d, want ≥4", st.DSACacheHits)
	}
}

// TestIterationTooLongRejected: bodies beyond the DSA's record buffer.
func TestIterationTooLongRejected(t *testing.T) {
	// A function loop whose callee loops many times per iteration,
	// overflowing the per-iteration record budget.
	src := `
        mov   r5, #0x1000
        mov   r2, #0x3000
        mov   r0, #0
loop:   ldr   r3, [r5], #4
        bl    busy
        str   r3, [r2], #4
        add   r0, r0, #1
        cmp   r0, #6
        blt   loop
        halt
busy:   mov   r7, #5000
bloop:  subs  r7, r7, #1
        bne   bloop
        bx    lr
`
	prog := asm.MustAssemble("toolong", src)
	ref := runScalar(t, prog, seedVectorSum)
	s := runDSA(t, prog, DefaultConfig(), seedVectorSum)
	checkWords(t, ref, s.M, 0x3000, 6, "toolong out")
	st := s.Stats()
	if st.RejectedReasons["iteration-too-long"] == 0 {
		t.Errorf("rejections = %v", st.RejectedReasons)
	}
}

// TestFloatConditionalVec: float compare guards full speculation.
func TestFloatConditionalVec(t *testing.T) {
	src := `
        mov   r5, #0x1000
        mov   r10, #0x2000
        mov   r2, #0x3000
        mov   r0, #0
        mov   r4, #40
loop:   ldrf  r3, [r5, r0, lsl #2]
        ldrf  r1, [r10, r0, lsl #2]
        fcmp  r3, r1
        ble   elseL
        strf  r3, [r2, r0, lsl #2]
        b     endif
elseL:  strf  r1, [r2, r0, lsl #2]
endif:  add   r0, r0, #1
        cmp   r0, r4
        blt   loop
        halt
`
	prog := asm.MustAssemble("fcond", src)
	setup := func(m *cpu.Machine) {
		a := make([]float32, 48)
		b := make([]float32, 48)
		for i := range a {
			a[i] = float32(i%7) - 2.5
			b[i] = float32(i%5) - 1.25
		}
		m.Mem.WriteFloats(0x1000, a)
		m.Mem.WriteFloats(0x2000, b)
	}
	ref := runScalar(t, prog, setup)
	s := runDSA(t, prog, DefaultConfig(), setup)
	wantF, _ := ref.Mem.ReadFloats(0x3000, 40)
	gotF, _ := s.M.Mem.ReadFloats(0x3000, 40)
	for i := range wantF {
		if wantF[i] != gotF[i] {
			t.Fatalf("float %d = %v, want %v", i, gotF[i], wantF[i])
		}
	}
	if s.Stats().ByKind[KindConditional] != 1 {
		t.Fatalf("census=%v rejections=%v", s.Stats().ByKind, s.Stats().RejectedReasons)
	}
}

// TestGeneratedListingReassembles: the DSA's generated SIMD statements
// are legal armlite (they parse and validate).
func TestGeneratedListingReassembles(t *testing.T) {
	prog := asm.MustAssemble("vsum", vectorSumSrc)
	s := runDSA(t, prog, DefaultConfig(), seedVectorSum)
	entry, ok := s.E.Cache.Lookup(prog.Labels["loop"])
	if !ok {
		t.Fatal("not cached")
	}
	for _, in := range entry.Analysis.Plan().Listing {
		if err := in.Validate(); err != nil {
			t.Errorf("generated %q: %v", in.String(), err)
		}
	}
}

// TestElifChain: if/elif/else ladders (Fig. 22's multi-condition
// loops) vectorize in the mapped mode — the chain compares keep
// executing scalar while each arm's action is vectorized per window
// and committed through the array maps.
func TestElifChain(t *testing.T) {
	src := `
        mov   r5, #0x1000
        mov   r2, #0x3000
        mov   r0, #0
        mov   r4, #160
loop:   ldrb  r3, [r5, r0]
        cmp   r3, #80
        blt   caseA
        cmp   r3, #160
        blt   caseB
        add   r6, r3, #3
        mul   r6, r6, r3
        strb  r6, [r2, r0]
        b     endif
caseA:  add   r6, r3, #1
        mul   r6, r6, r3
        strb  r6, [r2, r0]
        b     endif
caseB:  add   r6, r3, #2
        mul   r6, r6, r3
        strb  r6, [r2, r0]
endif:  add   r0, r0, #1
        cmp   r0, r4
        blt   loop
        halt
`
	prog := asm.MustAssemble("elif", src)
	setup := func(m *cpu.Machine) {
		vals := make([]byte, 200)
		for i := range vals {
			vals[i] = byte(i*7 + 5)
		}
		m.Mem.WriteBytes(0x1000, vals)
	}
	ref := runScalar(t, prog, setup)
	s := runDSA(t, prog, DefaultConfig(), setup)
	wantB, _ := ref.Mem.ReadBytes(0x3000, 160)
	gotB, _ := s.M.Mem.ReadBytes(0x3000, 160)
	for i := range wantB {
		if wantB[i] != gotB[i] {
			t.Fatalf("elif byte %d = %d, want %d", i, gotB[i], wantB[i])
		}
	}
	st := s.Stats()
	if st.ByKind[KindConditional] != 1 {
		t.Fatalf("census=%v rejections=%v", st.ByKind, st.RejectedReasons)
	}
	if st.Takeovers == 0 {
		t.Fatal("elif chain should vectorize in mapped mode")
	}
	entry, _ := s.E.Cache.Lookup(prog.Labels["loop"])
	if got := len(entry.Analysis.Cond.Paths); got != 3 {
		t.Errorf("paths = %d, want 3 (A, B, else)", got)
	}
	if entry.Analysis.Cond.Vec != nil {
		t.Error("3-arm chains must use the mapped mode, not guard vectorization")
	}
	if s.M.Ticks >= ref.Ticks {
		t.Errorf("no speedup: %d vs %d", s.M.Ticks, ref.Ticks)
	}
}

// mappedConditionalSrc is a cmp-guarded conditional whose byte lanes
// and multi-instruction arms keep the mapped mode above its
// profitability gate.
const mappedConditionalSrc = `
        mov   r5, #0x1000
        mov   r2, #0x3000
        mov   r0, #0
        mov   r4, #144
loop:   ldrb  r3, [r5, r0]
        cmp   r3, #100
        ble   lowV
        add   r6, r3, #9
        mul   r6, r6, r3
        strb  r6, [r2, r0]
        b     endif
lowV:   sub   r6, r3, #5
        eor   r6, r6, #77
        strb  r6, [r2, r0]
endif:  add   r0, r0, #1
        cmp   r0, r4
        blt   loop
        halt
`

func seedMappedConditional(m *cpu.Machine) {
	vals := make([]byte, 176)
	for i := range vals {
		vals[i] = byte(i*5 + 2)
	}
	m.Mem.WriteBytes(0x1000, vals)
}

// TestConditionalGuardVecDisabled: with EnableGuardVec off, the mapped
// mode must carry a cmp-guarded conditional correctly.
func TestConditionalGuardVecDisabled(t *testing.T) {
	prog := asm.MustAssemble("gvoff", mappedConditionalSrc)
	setup := seedMappedConditional
	ref := runScalar(t, prog, setup)
	cfg := DefaultConfig()
	cfg.EnableGuardVec = false
	s := runDSA(t, prog, cfg, setup)
	wantB, _ := ref.Mem.ReadBytes(0x3000, 144)
	gotB, _ := s.M.Mem.ReadBytes(0x3000, 144)
	for i := range wantB {
		if wantB[i] != gotB[i] {
			t.Fatalf("byte %d = %d, want %d", i, gotB[i], wantB[i])
		}
	}
	entry, ok := s.E.Cache.Lookup(prog.Labels["loop"])
	if !ok {
		t.Fatal("not cached")
	}
	if entry.Analysis.Cond.Vec != nil {
		t.Error("guard vectorization must be disabled")
	}
	if s.Stats().Takeovers == 0 {
		t.Error("mapped mode should still take over")
	}
	// The same kernel with guard vectorization on must also be exact.
	s2 := runDSA(t, prog, DefaultConfig(), setup)
	gotB2, _ := s2.M.Mem.ReadBytes(0x3000, 144)
	for i := range wantB {
		if wantB[i] != gotB2[i] {
			t.Fatalf("guardvec byte %d = %d, want %d", i, gotB2[i], wantB[i])
		}
	}
}

// TestArrayMapOverflowRejected: more conditional store slots than
// array maps (and free registers) — the §4.6.4.3 limitation.
func TestArrayMapOverflowRejected(t *testing.T) {
	// Each path stores to 3 distinct streams: 6 slots > 4 array maps
	// with zero spare registers configured.
	src := `
        mov   r5, #0x1000
        mov   r2, #0x3000
        mov   r7, #0x5000
        mov   r8, #0x7000
        mov   r0, #0
        mov   r4, #32
loop:   ldr   r3, [r5, r0, lsl #2]
        cmp   r3, #50
        ble   elseL
        str   r3, [r2, r0, lsl #2]
        str   r3, [r7, r0, lsl #2]
        str   r3, [r8, r0, lsl #2]
        b     endif
elseL:  str   r3, [r2, r0, lsl #2]
        str   r3, [r7, r0, lsl #2]
        str   r3, [r8, r0, lsl #2]
endif:  add   r0, r0, #1
        cmp   r0, r4
        blt   loop
        halt
`
	prog := asm.MustAssemble("maps", src)
	ref := runScalar(t, prog, seedConditional)
	cfg := DefaultConfig()
	cfg.EnableGuardVec = false // force the array-map path
	cfg.ArrayMaps = 4
	s := runDSA(t, prog, cfg, seedConditional)
	checkWords(t, ref, s.M, 0x3000, 32, "maps out")
	// 6 slots vs 4 maps + free NEON registers: per §4.6.4.3 unused Q
	// registers may absorb the overflow, so this configuration still
	// vectorizes; shrinking the effective budget rejects it.
	cfg2 := cfg
	cfg2.ArrayMaps = -20 // leave no budget even with 16 free regs
	s2 := runDSA(t, prog, cfg2, seedConditional)
	checkWords(t, ref, s2.M, 0x3000, 32, "maps out 2")
	if s2.Stats().RejectedReasons["array-map-overflow"] == 0 {
		t.Errorf("rejections = %v", s2.Stats().RejectedReasons)
	}
	_ = s
}

// TestMultiOccurrenceFunctionLoop: a function called twice per
// iteration produces multi-occurrence memory sites whose per-stream
// stride (8) exceeds the element size — pairwise access is genuinely
// not NEON-contiguous, so the DSA must reject it and stay exact.
func TestMultiOccurrenceFunctionLoop(t *testing.T) {
	src := `
        mov   r9, #0
outer:  mov   r5, #0x1000
        mov   r2, #0x3000
        mov   r0, #0
loop:   bl    fetch          ; r3 = *r5++
        mov   r7, r3
        bl    fetch          ; r3 = *r5++ (same load PC, occurrence 2)
        add   r3, r3, r7
        str   r3, [r2], #4
        add   r0, r0, #1
        cmp   r0, #30
        blt   loop
        add   r9, r9, #1
        cmp   r9, #2
        blt   outer
        halt
fetch:  ldr   r3, [r5], #4
        bx    lr
`
	prog := asm.MustAssemble("multiocc", src)
	setup := func(m *cpu.Machine) {
		vals := make([]int32, 128)
		for i := range vals {
			vals[i] = int32(i*11 - 40)
		}
		m.Mem.WriteWords(0x1000, vals)
	}
	ref := runScalar(t, prog, setup)
	s := runDSA(t, prog, DefaultConfig(), setup)
	checkWords(t, ref, s.M, 0x3000, 30, "multiocc out")
	st := s.Stats()
	if st.Takeovers != 0 {
		t.Errorf("interleaved pairwise loop must not vectorize; takeovers=%d", st.Takeovers)
	}
	if st.RejectedReasons["non-contiguous-access"] == 0 {
		t.Errorf("rejections = %v", st.RejectedReasons)
	}
}

// TestPartialDisabledOnHitRevalidation: a cached loop whose new range
// introduces a dependency must be caught by the hit-path CID
// revalidation.
func TestPartialDisabledOnHitRevalidation(t *testing.T) {
	// First entry: short range, streams don't collide. Second entry:
	// the (dynamic) range extends into the store stream.
	src := `
        mov   r9, #12         ; first range: loads stay clear
        mov   r8, #0
outer:  mov   r5, #0x1000
        mov   r2, #0x1030     ; stores 12 words ahead
        mov   r0, #0
loop:   ldr   r3, [r5], #4
        add   r3, r3, #2
        str   r3, [r2], #4
        add   r0, r0, #1
        cmp   r0, r9
        blt   loop
        mov   r9, #40         ; second range: loads reach the stores
        add   r8, r8, #1
        cmp   r8, #2
        blt   outer
        halt
`
	prog := asm.MustAssemble("revalidate", src)
	setup := func(m *cpu.Machine) {
		vals := make([]int32, 80)
		for i := range vals {
			vals[i] = int32(i)
		}
		m.Mem.WriteWords(0x1000, vals)
	}
	ref := runScalar(t, prog, setup)
	cfg := DefaultConfig()
	cfg.EnablePartial = false
	s := runDSA(t, prog, cfg, setup)
	checkWords(t, ref, s.M, 0x1000, 80, "revalidate memory")
}

// TestEngineReport: the cache report lists verdicts and listings.
func TestEngineReport(t *testing.T) {
	prog := asm.MustAssemble("vsum", vectorSumSrc)
	s := runDSA(t, prog, DefaultConfig(), seedVectorSum)
	rep := s.E.Report()
	if len(rep) != 1 {
		t.Fatalf("report entries = %d, want 1", len(rep))
	}
	r := rep[0]
	if !r.Vectorizable || r.Kind != KindCount || r.Lanes != 4 || r.ElemDT != "i32" {
		t.Errorf("report = %+v", r)
	}
	if len(r.Listing) != 4 {
		t.Errorf("listing = %v", r.Listing)
	}
}
