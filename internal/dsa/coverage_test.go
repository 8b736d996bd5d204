package dsa

import (
	"testing"

	"repro/internal/armlite"
	"repro/internal/asm"
	"repro/internal/cpu"
)

// TestPairConflictClosedForm exercises the dependency predictor over
// windows of 10,000 iterations, past the 4,096 the wrapping-stream
// scan is bounded to.
func TestPairConflictClosedForm(t *testing.T) {
	// Distance-100 RAW over 10000 iterations.
	ld, _ := NewMemPattern(0, false, armlite.Word, 4, 2, 3, 0x1000, 0x1004)
	st, _ := NewMemPattern(1, true, armlite.Word, 4, 2, 3, 0x1000+400, 0x1404+0)
	st.Stride = 4
	res := PredictCID([]MemPattern{ld, st}, 2, 10000)
	if !res.HasCID {
		t.Fatal("long-range RAW must be detected")
	}
	if res.Distance != 100 {
		t.Errorf("distance = %d, want 100", res.Distance)
	}
	// Disjoint streams over a long range: NCID through the fast path.
	far, _ := NewMemPattern(1, true, armlite.Word, 4, 2, 3, 0x900000, 0x900004)
	res = PredictCID([]MemPattern{ld, far}, 2, 10000)
	if res.HasCID {
		t.Error("disjoint long-range streams must be NCID")
	}
	// Invariant store aliasing the load stream.
	inv, _ := NewMemPattern(1, true, armlite.Word, 4, 2, 3, 0x1800, 0x1800)
	res = PredictCID([]MemPattern{ld, inv}, 2, 10000)
	if !res.HasCID {
		t.Error("stride-0 store inside the load stream must be CID")
	}
	// Unequal strides with overlapping ranges: the load stream reaches
	// the store's first bytes at iteration 66.
	st2, _ := NewMemPattern(1, true, armlite.Word, 4, 2, 3, 0x1100, 0x1108)
	res = PredictCID([]MemPattern{ld, st2}, 2, 10000)
	if !res.HasCID {
		t.Error("unequal overlapping strides must be CID (the load reaches the store at iteration 66)")
	}
}

// TestEvalMemOperandForms covers every addressing form the cache-hit
// rebase can see.
func TestEvalMemOperandForms(t *testing.T) {
	var r [armlite.NumRegs]uint32
	r[armlite.R1] = 0x1000
	r[armlite.R2] = 4

	post := armlite.Mem{Base: armlite.R1, Index: armlite.NoReg, Offset: 4, Kind: armlite.AddrPostIndex}
	if a, ok := evalMemOperand(&post, &r); !ok || a != 0x1000 {
		t.Errorf("post-index = %#x,%v", a, ok)
	}
	rof := armlite.Mem{Base: armlite.R1, Index: armlite.R2, Shift: 2, Kind: armlite.AddrRegOffset}
	if a, ok := evalMemOperand(&rof, &r); !ok || a != 0x1010 {
		t.Errorf("reg-offset = %#x,%v", a, ok)
	}
	ofs := armlite.Mem{Base: armlite.R1, Index: armlite.NoReg, Offset: 8, Kind: armlite.AddrOffset}
	if a, ok := evalMemOperand(&ofs, &r); !ok || a != 0x1008 {
		t.Errorf("offset = %#x,%v", a, ok)
	}
	wb := armlite.Mem{Base: armlite.R1, Index: armlite.NoReg, Kind: armlite.AddrOffset, Writeback: true}
	if a, ok := evalMemOperand(&wb, &r); !ok || a != 0x1000 {
		t.Errorf("writeback = %#x,%v", a, ok)
	}
	bad := armlite.Mem{Base: armlite.NoReg}
	if _, ok := evalMemOperand(&bad, &r); ok {
		t.Error("invalid base must fail")
	}
	noIdx := armlite.Mem{Base: armlite.R1, Index: armlite.NoReg, Kind: armlite.AddrRegOffset}
	if _, ok := evalMemOperand(&noIdx, &r); ok {
		t.Error("missing index must fail")
	}
}

// TestStageAndKindStrings: diagnostic strings for every enum value.
func TestStageAndKindStrings(t *testing.T) {
	for k := KindUnknown; k <= KindNonVectorizable; k++ {
		if k.String() == "" {
			t.Errorf("kind %d prints empty", k)
		}
	}
	for _, st := range []stage{stDetected, stCollected, stMapping, stDecided} {
		if st.String() == "" {
			t.Errorf("stage %d prints empty", st)
		}
	}
	for _, p := range []LeftoverPolicy{LeftoverAuto, LeftoverSingle, LeftoverOverlap, LeftoverLarger, LeftoverScalar} {
		if p.String() == "" {
			t.Errorf("policy %d prints empty", p)
		}
	}
}

// TestRemainingFlippedAll covers every flipped compare direction.
func TestRemainingFlippedAll(t *testing.T) {
	// cmp limit, counter — continue while cond(limit, counter).
	cases := []struct {
		cond  armlite.Cond
		delta int64
		c, l  uint32
		want  int
	}{
		{armlite.CondGT, 1, 0, 10, 10},  // while 10 > c
		{armlite.CondGE, 1, 0, 10, 11},  // while 10 ≥ c
		{armlite.CondLT, -1, 10, 0, 10}, // while 0 < c (counting down)
		{armlite.CondLE, -1, 10, 0, 11}, // while 0 ≤ c
		{armlite.CondHI, 1, 0, 10, 10},  // unsigned while 10 > c
		{armlite.CondHS, 1, 0, 10, 11},  // unsigned while 10 ≥ c
		{armlite.CondNE, 1, 0, 10, 10},  // while 10 ≠ c
	}
	for _, c := range cases {
		ti := TripInfo{CounterReg: armlite.R0, Delta: c.delta, Cond: c.cond,
			CounterIsRn: false,
			Unsigned:    c.cond == armlite.CondHI || c.cond == armlite.CondHS}
		got, ok := ti.Remaining(c.c, c.l)
		if !ok || got != c.want {
			t.Errorf("flipped %v d=%d: Remaining(%d,%d) = %d,%v want %d",
				c.cond, c.delta, c.c, c.l, got, ok, c.want)
		}
	}
}

// TestSentinelInsideOuterLoop: a sentinel takeover inside a tracked
// outer loop must mark the outer nested (NoteVectorized path).
func TestSentinelInsideOuterLoop(t *testing.T) {
	src := `
        mov   r8, #0
outer:  mov   r5, #0x1000
        mov   r2, #0x2000
inner:  ldrb  r3, [r5], #1
        cmp   r3, #0
        beq   iend
        add   r4, r3, #1
        strb  r4, [r2], #1
        b     inner
iend:   add   r8, r8, #1
        cmp   r8, #3
        blt   outer
        halt
`
	prog := asm.MustAssemble("sentnest", src)
	setup := seedSentinel(60)
	ref := runScalar(t, prog, setup)
	s := runDSA(t, prog, DefaultConfig(), setup)
	wantB, _ := ref.Mem.ReadBytes(0x2000, 61)
	gotB, _ := s.M.Mem.ReadBytes(0x2000, 61)
	for i := range wantB {
		if wantB[i] != gotB[i] {
			t.Fatalf("byte %d = %d, want %d", i, gotB[i], wantB[i])
		}
	}
	st := s.Stats()
	if st.ByKind[KindNested] != 1 || st.ByKind[KindSentinel] != 1 {
		t.Errorf("census = %v", st.ByKind)
	}
	if st.Takeovers != 3 {
		t.Errorf("takeovers = %d, want 3 (one per outer entry)", st.Takeovers)
	}
}

// TestVCacheAccessors: entry/capacity plumbing.
func TestVCacheAccessors(t *testing.T) {
	v := NewVCache(64)
	if v.Capacity() != 8 {
		t.Errorf("capacity = %d", v.Capacity())
	}
	v.Record(1, 0x10, 4, true, armlite.Word)
	if len(v.Entries()) != 1 || !v.Entries()[0].store {
		t.Errorf("entries = %+v", v.Entries())
	}
}

// TestRejectReasonError: the rejection error type formats its reason.
func TestRejectReasonError(t *testing.T) {
	err := rejectf("some-%s", "reason")
	if err.Error() != "dsa: some-reason" {
		t.Errorf("Error() = %q", err.Error())
	}
	if reasonOf(err) != "some-reason" {
		t.Errorf("reasonOf = %q", reasonOf(err))
	}
	if got := reasonOf(cpuErr()); got == "" {
		t.Error("foreign errors must still yield a reason string")
	}
}

func cpuErr() error {
	_, err := cpu.New(&armlite.Program{Name: "bad", Code: []armlite.Instr{armlite.NewInstr(armlite.OpAdd)}}, cpu.DefaultConfig())
	return err
}
