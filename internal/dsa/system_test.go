package dsa

import (
	"testing"

	"repro/internal/armlite"
	"repro/internal/asm"
	"repro/internal/cpu"
)

// runScalar executes the program without DSA for a reference.
func runScalar(t *testing.T, prog *armlite.Program, setup func(*cpu.Machine)) *cpu.Machine {
	t.Helper()
	m := cpu.MustNew(prog, cpu.DefaultConfig())
	if setup != nil {
		setup(m)
	}
	if err := m.Run(nil); err != nil {
		t.Fatal(err)
	}
	return m
}

// runDSA executes under the DSA system.
func runDSA(t *testing.T, prog *armlite.Program, cfg Config, setup func(*cpu.Machine)) *System {
	t.Helper()
	s, err := NewSystem(prog, cpu.DefaultConfig(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if setup != nil {
		setup(s.M)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return s
}

// checkWords compares a memory region between two machines.
func checkWords(t *testing.T, ref, got *cpu.Machine, addr uint32, n int, what string) {
	t.Helper()
	want, err := ref.Mem.ReadWords(addr, n)
	if err != nil {
		t.Fatal(err)
	}
	have, err := got.Mem.ReadWords(addr, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if want[i] != have[i] {
			t.Fatalf("%s: word %d = %d, want %d", what, i, have[i], want[i])
		}
	}
}

// vectorSumSrc is the Fig. 25 vector-sum loop: v[i] = a[i] + b[i],
// with a register trip limit (the counting idiom of the figure).
const vectorSumSrc = `
        mov   r5, #0x1000     ; &a
        mov   r10, #0x2000    ; &b
        mov   r2, #0x3000     ; &v
        mov   r0, #0          ; i
        mov   r4, #100        ; n
loop:   ldr   r3, [r5], #4
        ldr   r1, [r10], #4
        add   r3, r3, r1
        str   r3, [r2], #4
        add   r0, r0, #1
        cmp   r0, r4
        blt   loop
        halt
`

func seedVectorSum(m *cpu.Machine) {
	a := make([]int32, 128)
	b := make([]int32, 128)
	for i := range a {
		a[i] = int32(i * 3)
		b[i] = int32(1000 - i)
	}
	m.Mem.WriteWords(0x1000, a)
	m.Mem.WriteWords(0x2000, b)
}

func TestCountLoopVectorSum(t *testing.T) {
	prog := asm.MustAssemble("vsum", vectorSumSrc)
	ref := runScalar(t, prog, seedVectorSum)
	s := runDSA(t, prog, DefaultConfig(), seedVectorSum)

	checkWords(t, ref, s.M, 0x3000, 100, "v")
	if s.M.R[armlite.R0] != 100 {
		t.Errorf("final counter = %d, want 100", s.M.R[armlite.R0])
	}
	if s.M.R[armlite.R5] != 0x1000+400 {
		t.Errorf("final base r5 = %#x", s.M.R[armlite.R5])
	}
	st := s.Stats()
	if st.Takeovers != 1 {
		t.Errorf("takeovers = %d, want 1", st.Takeovers)
	}
	if st.ByKind[KindCount] != 1 {
		t.Errorf("count-loop census = %v", st.ByKind)
	}
	if st.VectorizedIters < 90 {
		t.Errorf("vectorized iterations = %d, want ≈96", st.VectorizedIters)
	}
	if s.M.Ticks >= ref.Ticks {
		t.Errorf("DSA ticks %d not faster than scalar %d", s.M.Ticks, ref.Ticks)
	}
	if s.M.Counts.VecOps == 0 || s.M.Counts.VecLoads == 0 {
		t.Error("no NEON activity recorded")
	}
}

// TestSIMDGenerationPaperExample checks the generated statements for
// the Fig. 25 loop: two vector loads, one vadd.i32, one vector store.
func TestSIMDGenerationPaperExample(t *testing.T) {
	prog := asm.MustAssemble("vsum", vectorSumSrc)
	s := runDSA(t, prog, DefaultConfig(), seedVectorSum)
	entry, ok := s.E.Cache.Lookup(5)
	if !ok || !entry.Vectorizable {
		t.Fatalf("loop not cached as vectorizable: %+v", entry)
	}
	a := entry.Analysis
	if a.ElemDT != armlite.I32 {
		t.Errorf("element type = %v, want i32", a.ElemDT)
	}
	if a.Lanes() != 4 {
		t.Errorf("lanes = %d, want 4", a.Lanes())
	}
	var loads, adds, stores int
	for _, in := range a.plan.Listing {
		switch in.Op {
		case armlite.OpVld1:
			loads++
		case armlite.OpVadd:
			adds++
		case armlite.OpVst1:
			stores++
		default:
			t.Errorf("unexpected generated op %v", in.Op)
		}
	}
	if loads != 2 || adds != 1 || stores != 1 {
		t.Errorf("generated %d loads, %d adds, %d stores; want 2/1/1\n%v",
			loads, adds, stores, a.plan.Listing)
	}
}

// TestLeftoverHandling: 21 elements (Fig. 26's non-multiple case)
// under each leftover policy.
func TestLeftoverHandling(t *testing.T) {
	src := `
        mov   r5, #0x1000
        mov   r10, #0x2000
        mov   r2, #0x3000
        mov   r0, #0
        mov   r4, #21
loop:   ldr   r3, [r5], #4
        ldr   r1, [r10], #4
        add   r3, r3, r1
        str   r3, [r2], #4
        add   r0, r0, #1
        cmp   r0, r4
        blt   loop
        halt
`
	prog := asm.MustAssemble("leftover", src)
	ref := runScalar(t, prog, seedVectorSum)
	for _, pol := range []LeftoverPolicy{LeftoverAuto, LeftoverSingle, LeftoverOverlap, LeftoverScalar, LeftoverLarger} {
		cfg := DefaultConfig()
		cfg.Leftover = pol
		s := runDSA(t, prog, cfg, seedVectorSum)
		checkWords(t, ref, s.M, 0x3000, 21, "v/"+pol.String())
		if s.M.R[armlite.R0] != 21 {
			t.Errorf("%v: final counter = %d", pol, s.M.R[armlite.R0])
		}
	}
}

// TestFunctionLoop: the loop body calls a function (Fig. 16).
func TestFunctionLoop(t *testing.T) {
	src := `
        mov   r5, #0x1000
        mov   r2, #0x3000
        mov   r0, #0
        mov   r4, #50
loop:   ldr   r3, [r5], #4
        bl    scale
        str   r3, [r2], #4
        add   r0, r0, #1
        cmp   r0, r4
        blt   loop
        halt
scale:  mul   r3, r3, r6
        add   r3, r3, r7
        bx    lr
`
	prog := asm.MustAssemble("funloop", src)
	setup := func(m *cpu.Machine) {
		seedVectorSum(m)
		m.R[armlite.R6] = 3
		m.R[armlite.R7] = 11
	}
	ref := runScalar(t, prog, setup)
	s := runDSA(t, prog, DefaultConfig(), setup)
	checkWords(t, ref, s.M, 0x3000, 50, "function loop out")
	st := s.Stats()
	if st.ByKind[KindFunction] != 1 {
		t.Errorf("function-loop census = %v (rejections %v)", st.ByKind, st.RejectedReasons)
	}
	if st.Takeovers != 1 {
		t.Errorf("takeovers = %d", st.Takeovers)
	}
	if s.M.Ticks >= ref.Ticks {
		t.Errorf("DSA %d ticks not faster than scalar %d", s.M.Ticks, ref.Ticks)
	}
}

// TestCrossIterationDependencyRejected: v[i] = v[i-1] + b[i] must not
// be vectorized (Fig. 8.b) when partial vectorization is off, and the
// result must stay correct either way.
func TestCrossIterationDependencyRejected(t *testing.T) {
	src := `
        mov   r5, #0x1000     ; &v[0] (reads v[i-1])
        mov   r2, #0x1004     ; &v[1] (writes v[i])
        mov   r10, #0x2000    ; &b
        mov   r0, #0
        mov   r4, #50
loop:   ldr   r3, [r5], #4
        ldr   r1, [r10], #4
        add   r3, r3, r1
        str   r3, [r2], #4
        add   r0, r0, #1
        cmp   r0, r4
        blt   loop
        halt
`
	prog := asm.MustAssemble("recurrence", src)
	ref := runScalar(t, prog, seedVectorSum)
	cfg := DefaultConfig()
	cfg.EnablePartial = false
	s := runDSA(t, prog, cfg, seedVectorSum)
	checkWords(t, ref, s.M, 0x1000, 51, "recurrence v")
	st := s.Stats()
	if st.Takeovers != 0 {
		t.Errorf("recurrence must not take over; got %d", st.Takeovers)
	}
	if st.RejectedReasons["cross-iteration-dependency"] == 0 {
		t.Errorf("rejection census = %v", st.RejectedReasons)
	}
}

// TestPartialVectorization: a distance-8 dependency loop vectorizes in
// windows when partial vectorization is on.
func TestPartialVectorization(t *testing.T) {
	// v[i+8] = v[i] + 1 for i in 0..39 (writes depend on reads 8 back).
	src := `
        mov   r5, #0x1000     ; read cursor v[i]
        mov   r2, #0x1020     ; write cursor v[i+8]
        mov   r0, #0
        mov   r4, #40
loop:   ldr   r3, [r5], #4
        add   r3, r3, #1
        str   r3, [r2], #4
        add   r0, r0, #1
        cmp   r0, r4
        blt   loop
        halt
`
	prog := asm.MustAssemble("partial", src)
	setup := func(m *cpu.Machine) {
		vals := make([]int32, 64)
		for i := range vals {
			vals[i] = int32(i)
		}
		m.Mem.WriteWords(0x1000, vals)
	}
	ref := runScalar(t, prog, setup)
	s := runDSA(t, prog, DefaultConfig(), setup)
	checkWords(t, ref, s.M, 0x1000, 64, "partial v")
	st := s.Stats()
	if st.Takeovers != 1 {
		t.Fatalf("takeovers = %d, rejections = %v", st.Takeovers, st.RejectedReasons)
	}
	entry, _ := s.E.Cache.Lookup(4)
	if entry == nil || !entry.Analysis.Partial {
		t.Error("loop should be marked partial")
	}
	if entry.Analysis.CID.Distance != 8 {
		t.Errorf("distance = %d, want 8", entry.Analysis.CID.Distance)
	}

	// Ablation: partial disabled rejects.
	cfg := OriginalConfig()
	s2 := runDSA(t, prog, cfg, setup)
	if s2.Stats().Takeovers != 0 {
		t.Error("original DSA must not vectorize dependent loops")
	}
	checkWords(t, ref, s2.M, 0x1000, 64, "partial-off v")
}

// TestDSACacheHit: a loop executed twice hits the DSA cache and
// vectorizes from its second iteration on re-entry.
func TestDSACacheHit(t *testing.T) {
	src := `
        mov   r8, #0          ; outer counter
outer:  mov   r5, #0x1000
        mov   r10, #0x2000
        mov   r2, #0x3000
        mov   r0, #0
        mov   r4, #40
loop:   ldr   r3, [r5], #4
        ldr   r1, [r10], #4
        add   r3, r3, r1
        str   r3, [r2], #4
        add   r0, r0, #1
        cmp   r0, r4
        blt   loop
        add   r8, r8, #1
        cmp   r8, #3
        blt   outer
        halt
`
	prog := asm.MustAssemble("cachehit", src)
	ref := runScalar(t, prog, seedVectorSum)
	s := runDSA(t, prog, DefaultConfig(), seedVectorSum)
	checkWords(t, ref, s.M, 0x3000, 40, "cache-hit v")
	st := s.Stats()
	if st.DSACacheHits < 2 {
		t.Errorf("cache hits = %d, want ≥2", st.DSACacheHits)
	}
	if st.Takeovers != 3 {
		t.Errorf("takeovers = %d, want 3 (one per entry)", st.Takeovers)
	}
	// Outer loop must be classified nested, not conditional.
	if st.ByKind[KindNested] == 0 {
		t.Errorf("census = %v", st.ByKind)
	}
}

// dynamicRangeSrc runs the same loop twice with different ranges.
// First entry: 5 iterations (no dependency in range). Second entry: 20
// iterations (store stream reaches the loads).
const dynamicRangeSrc = `
        mov   r9, #5          ; first range
        mov   r8, #0          ; entry counter
outer:  mov   r5, #0x1000     ; load cursor
        mov   r2, #0x1040     ; store cursor: 16 words ahead
        mov   r0, #0
loop:   ldr   r3, [r5], #4
        add   r3, r3, #7
        str   r3, [r2], #4
        add   r0, r0, #1
        cmp   r0, r9
        blt   loop
        mov   r9, #20         ; second range is larger
        add   r8, r8, #1
        cmp   r8, #2
        blt   outer
        halt
`

func seedDynamicRange(m *cpu.Machine) {
	vals := make([]int32, 64)
	for i := range vals {
		vals[i] = int32(i * 5)
	}
	m.Mem.WriteWords(0x1000, vals)
}

// TestDynamicRangePaperExample (Fig. 24): the same loop runs twice
// with different ranges; the DSA re-analyzes on the limit change and
// a range-dependent dependency flips the verdict.
func TestDynamicRangeReanalysis(t *testing.T) {
	prog := asm.MustAssemble("dynrange", dynamicRangeSrc)
	setup := seedDynamicRange
	ref := runScalar(t, prog, setup)
	s := runDSA(t, prog, DefaultConfig(), setup)
	checkWords(t, ref, s.M, 0x1000, 64, "dynrange v")
	st := s.Stats()
	if st.ByKind[KindDynamicRange] == 0 {
		t.Errorf("dynamic-range census = %v", st.ByKind)
	}
}

// TestTooShortLoopNotTakenOver: loops with fewer than five iterations
// have nothing left to vectorize after analysis.
func TestTooShortLoopNotTakenOver(t *testing.T) {
	src := `
        mov   r5, #0x1000
        mov   r2, #0x3000
        mov   r0, #0
loop:   ldr   r3, [r5], #4
        add   r3, r3, #1
        str   r3, [r2], #4
        add   r0, r0, #1
        cmp   r0, #4
        blt   loop
        halt
`
	prog := asm.MustAssemble("short", src)
	ref := runScalar(t, prog, seedVectorSum)
	s := runDSA(t, prog, DefaultConfig(), seedVectorSum)
	checkWords(t, ref, s.M, 0x3000, 4, "short v")
	if s.Stats().Takeovers != 0 {
		t.Errorf("takeovers = %d, want 0", s.Stats().Takeovers)
	}
}

// TestNonVectorizableOps: division in the body rejects vectorization
// but execution stays correct.
func TestNonVectorizableOps(t *testing.T) {
	src := `
        mov   r5, #0x1000
        mov   r2, #0x3000
        mov   r0, #0
        mov   r6, #3
loop:   ldr   r3, [r5], #4
        sdiv  r3, r3, r6
        str   r3, [r2], #4
        add   r0, r0, #1
        cmp   r0, #30
        blt   loop
        halt
`
	prog := asm.MustAssemble("div", src)
	ref := runScalar(t, prog, seedVectorSum)
	s := runDSA(t, prog, DefaultConfig(), seedVectorSum)
	checkWords(t, ref, s.M, 0x3000, 30, "div out")
	st := s.Stats()
	if st.Takeovers != 0 {
		t.Error("division loop must not be vectorized")
	}
	if st.RejectedReasons["division-in-payload"] == 0 {
		t.Errorf("rejections = %v", st.RejectedReasons)
	}
}

// TestFloatLoop: float32 elementwise multiply-add.
func TestFloatLoop(t *testing.T) {
	src := `
        mov   r5, #0x1000
        mov   r10, #0x2000
        mov   r2, #0x3000
        mov   r0, #0
loop:   ldrf  r3, [r5], #4
        ldrf  r1, [r10], #4
        fmul  r3, r3, r1
        fadd  r3, r3, r1
        strf  r3, [r2], #4
        add   r0, r0, #1
        cmp   r0, #37
        blt   loop
        halt
`
	prog := asm.MustAssemble("float", src)
	setup := func(m *cpu.Machine) {
		a := make([]float32, 64)
		b := make([]float32, 64)
		for i := range a {
			a[i] = float32(i) * 0.5
			b[i] = 2.25 - float32(i)*0.125
		}
		m.Mem.WriteFloats(0x1000, a)
		m.Mem.WriteFloats(0x2000, b)
	}
	prog2 := prog.Clone()
	ref := runScalar(t, prog, setup)
	s := runDSA(t, prog2, DefaultConfig(), setup)
	st := s.Stats()
	if st.Takeovers != 1 {
		t.Fatalf("float loop not taken over; rejections = %v", st.RejectedReasons)
	}
	wantF, _ := ref.Mem.ReadFloats(0x3000, 37)
	gotF, _ := s.M.Mem.ReadFloats(0x3000, 37)
	for i := range wantF {
		if wantF[i] != gotF[i] {
			t.Fatalf("float %d = %v, want %v", i, gotF[i], wantF[i])
		}
	}
}

// TestByteLoop: 8-bit elements give 16-way parallelism.
func TestByteLoop(t *testing.T) {
	src := `
        mov   r5, #0x1000
        mov   r10, #0x2000
        mov   r2, #0x3000
        mov   r0, #0
loop:   ldrb  r3, [r5], #1
        ldrb  r1, [r10], #1
        add   r3, r3, r1
        strb  r3, [r2], #1
        add   r0, r0, #1
        cmp   r0, #200
        blt   loop
        halt
`
	prog := asm.MustAssemble("bytes", src)
	setup := func(m *cpu.Machine) {
		a := make([]byte, 256)
		b := make([]byte, 256)
		for i := range a {
			a[i] = byte(i)
			b[i] = byte(255 - i)
		}
		m.Mem.WriteBytes(0x1000, a)
		m.Mem.WriteBytes(0x2000, b)
	}
	ref := runScalar(t, prog, setup)
	s := runDSA(t, prog, DefaultConfig(), setup)
	st := s.Stats()
	if st.Takeovers != 1 {
		t.Fatalf("byte loop not taken over; rejections = %v", st.RejectedReasons)
	}
	wantB, _ := ref.Mem.ReadBytes(0x3000, 200)
	gotB, _ := s.M.Mem.ReadBytes(0x3000, 200)
	for i := range wantB {
		if wantB[i] != gotB[i] {
			t.Fatalf("byte %d = %d, want %d", i, gotB[i], wantB[i])
		}
	}
	entry, _ := s.E.Cache.Lookup(4)
	if entry.Analysis.Lanes() != 16 {
		t.Errorf("lanes = %d, want 16", entry.Analysis.Lanes())
	}
	if s.M.Ticks >= ref.Ticks/2 {
		t.Errorf("byte loop speedup too small: %d vs %d", s.M.Ticks, ref.Ticks)
	}
}
