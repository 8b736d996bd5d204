package neon

import (
	"testing"
	"testing/quick"

	"repro/internal/armlite"
	"repro/internal/mem"
)

func TestLaneAccessAllTypes(t *testing.T) {
	for _, dt := range []armlite.DataType{armlite.I8, armlite.I16, armlite.I32} {
		var v Vec
		for i := 0; i < dt.Lanes(); i++ {
			v.SetLane(dt, i, uint32(i*3+1))
		}
		for i := 0; i < dt.Lanes(); i++ {
			if got := v.LaneU(dt, i); got != uint32(i*3+1) {
				t.Errorf("%v lane %d = %d, want %d", dt, i, got, i*3+1)
			}
		}
	}
}

func TestLaneSignExtension(t *testing.T) {
	var v Vec
	v.SetLane(armlite.I8, 0, 0xFF)
	if got := v.LaneS(armlite.I8, 0); got != -1 {
		t.Errorf("i8 sign extension = %d, want -1", got)
	}
	v.SetLane(armlite.I16, 1, 0x8000)
	if got := v.LaneS(armlite.I16, 1); got != -32768 {
		t.Errorf("i16 sign extension = %d", got)
	}
}

func TestFloatLanes(t *testing.T) {
	var v Vec
	v.SetLaneF(2, 3.25)
	if got := v.LaneF(2); got != 3.25 {
		t.Errorf("float lane = %v", got)
	}
}

func TestSplat(t *testing.T) {
	v := Splat(armlite.I16, 7)
	for i := 0; i < 8; i++ {
		if v.LaneU(armlite.I16, i) != 7 {
			t.Fatalf("lane %d = %d", i, v.LaneU(armlite.I16, i))
		}
	}
}

func TestALUIntOps(t *testing.T) {
	a := Splat(armlite.I32, 10)
	b := Splat(armlite.I32, 3)
	cases := map[armlite.Op]int32{
		armlite.OpVadd: 13, armlite.OpVsub: 7, armlite.OpVmul: 30,
		armlite.OpVand: 10 & 3, armlite.OpVorr: 10 | 3, armlite.OpVeor: 10 ^ 3,
		armlite.OpVmin: 3, armlite.OpVmax: 10,
	}
	for op, want := range cases {
		out, err := ALU(op, armlite.I32, Vec{}, a, b, 0)
		if err != nil {
			t.Fatalf("%v: %v", op, err)
		}
		for i := 0; i < 4; i++ {
			if got := out.LaneS(armlite.I32, i); got != want {
				t.Errorf("%v lane %d = %d, want %d", op, i, got, want)
			}
		}
	}
}

func TestALUShifts(t *testing.T) {
	a := Splat(armlite.I32, 0x100)
	out, err := ALU(armlite.OpVshr, armlite.I32, Vec{}, a, Vec{}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if out.LaneS(armlite.I32, 0) != 1 {
		t.Errorf("vshr = %d", out.LaneS(armlite.I32, 0))
	}
	out, err = ALU(armlite.OpVshl, armlite.I32, Vec{}, a, Vec{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if out.LaneS(armlite.I32, 0) != 0x1000 {
		t.Errorf("vshl = %#x", out.LaneS(armlite.I32, 0))
	}
	// Arithmetic shift right preserves sign.
	negVal := int32(-64)
	neg := Splat(armlite.I32, uint32(negVal))
	out, _ = ALU(armlite.OpVshr, armlite.I32, Vec{}, neg, Vec{}, 2)
	if out.LaneS(armlite.I32, 0) != -16 {
		t.Errorf("arithmetic vshr = %d, want -16", out.LaneS(armlite.I32, 0))
	}
}

func TestALUFloat(t *testing.T) {
	a := Vec{}
	b := Vec{}
	for i := 0; i < 4; i++ {
		a.SetLaneF(i, float32(i)+0.5)
		b.SetLaneF(i, 2)
	}
	out, err := ALU(armlite.OpVmul, armlite.VF32, Vec{}, a, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		want := (float32(i) + 0.5) * 2
		if got := out.LaneF(i); got != want {
			t.Errorf("fmul lane %d = %v, want %v", i, got, want)
		}
	}
	if _, err := ALU(armlite.OpVand, armlite.VF32, Vec{}, a, b, 0); err == nil {
		t.Error("vand.f32 should be rejected")
	}
}

func TestCompareAndSelect(t *testing.T) {
	a := Splat(armlite.I32, 5)
	var b Vec
	for i := 0; i < 4; i++ {
		b.SetLane(armlite.I32, i, uint32(i*3)) // 0,3,6,9
	}
	mask, err := ALU(armlite.OpVcgt, armlite.I32, Vec{}, a, b, 0) // a > b → 1,1,0,0
	if err != nil {
		t.Fatal(err)
	}
	wantMask := []uint32{0xFFFFFFFF, 0xFFFFFFFF, 0, 0}
	for i := 0; i < 4; i++ {
		if mask.LaneU(armlite.I32, i) != wantMask[i] {
			t.Errorf("vcgt lane %d = %#x", i, mask.LaneU(armlite.I32, i))
		}
	}
	// vbsl: qd = mask ? qn : qm
	sel, err := ALU(armlite.OpVbsl, armlite.I32, mask, a, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []int32{5, 5, 6, 9}
	for i := 0; i < 4; i++ {
		if got := sel.LaneS(armlite.I32, i); got != want[i] {
			t.Errorf("vbsl lane %d = %d, want %d", i, got, want[i])
		}
	}
	// vceq
	eq, _ := ALU(armlite.OpVceq, armlite.I32, Vec{}, a, Splat(armlite.I32, 5), 0)
	if eq.LaneU(armlite.I32, 0) != 0xFFFFFFFF {
		t.Error("vceq failed on equal lanes")
	}
}

func TestLoadStoreVec(t *testing.T) {
	m := mem.New(1024)
	want := []int32{11, 22, 33, 44}
	if err := m.WriteWords(64, want); err != nil {
		t.Fatal(err)
	}
	v, err := LoadVec(m, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		if v.LaneS(armlite.I32, i) != w {
			t.Errorf("lane %d = %d", i, v.LaneS(armlite.I32, i))
		}
	}
	if err := StoreVec(m, 128, v); err != nil {
		t.Fatal(err)
	}
	got, _ := m.ReadWords(128, 4)
	for i, w := range want {
		if got[i] != w {
			t.Errorf("stored word %d = %d", i, got[i])
		}
	}
	if _, err := LoadVec(m, 1020); err == nil {
		t.Error("out-of-range vector load must fail")
	}
}

// Property: vadd.i32 equals per-lane scalar addition for arbitrary
// inputs (wrapping arithmetic).
func TestQuickVaddMatchesScalar(t *testing.T) {
	f := func(a, b [4]int32) bool {
		var qa, qb Vec
		for i := 0; i < 4; i++ {
			qa.SetLane(armlite.I32, i, uint32(a[i]))
			qb.SetLane(armlite.I32, i, uint32(b[i]))
		}
		out, err := ALU(armlite.OpVadd, armlite.I32, Vec{}, qa, qb, 0)
		if err != nil {
			return false
		}
		for i := 0; i < 4; i++ {
			if out.LaneS(armlite.I32, i) != a[i]+b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: vbsl is a bitwise mux for arbitrary masks.
func TestQuickVbsl(t *testing.T) {
	f := func(mask, n, m [16]byte) bool {
		var qd, qn, qm Vec
		copy(qd[:], mask[:])
		copy(qn[:], n[:])
		copy(qm[:], m[:])
		out, err := ALU(armlite.OpVbsl, armlite.I8, qd, qn, qm, 0)
		if err != nil {
			return false
		}
		for i := 0; i < 16; i++ {
			if out[i] != (mask[i]&n[i])|(^mask[i]&m[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
