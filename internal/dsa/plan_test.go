package dsa

import (
	"testing"

	"repro/internal/armlite"
	"repro/internal/asm"
	"repro/internal/cpu"
)

// mkPattern builds a contiguous word pattern starting at base.
func mkPattern(pc int, store bool, base uint32) MemPattern {
	p, err := NewMemPattern(pc, store, armlite.Word, 4, 2, 3, base, base+4)
	if err != nil {
		panic(err)
	}
	return p
}

// chainDAG builds: load → (+imm)×n → store, returning the DAG.
func chainDAG(n int) (*PayloadDAG, []MemPattern) {
	patterns := []MemPattern{mkPattern(0, false, 0x1000), mkPattern(1, true, 0x2000)}
	load := &Node{Kind: NodeLoad, Pattern: 0}
	nodes := []*Node{load}
	cur := load
	for i := 0; i < n; i++ {
		imm := &Node{Kind: NodeImm, Imm: int32(i + 1)}
		expr := &Node{Kind: NodeExpr, Op: armlite.OpAdd, A: cur, B: imm}
		nodes = append(nodes, imm, expr)
		cur = expr
	}
	return &PayloadDAG{
		Nodes:  nodes,
		Stores: []StoreSlot{{Pattern: 1, Value: cur}},
	}, patterns
}

// TestBuildPlanSetupChunkDisjoint is the regression test for the
// register-allocation bug where window-lived broadcast registers were
// recycled by chunk-local values.
func TestBuildPlanSetupChunkDisjoint(t *testing.T) {
	dag, patterns := chainDAG(6)
	plan, err := BuildPlan(dag, patterns, armlite.Word)
	if err != nil {
		t.Fatal(err)
	}
	setupRegs := map[armlite.VReg]bool{}
	for _, n := range dag.Nodes {
		if n.Kind == NodeImm || n.Kind == NodeConstReg || n.Kind == NodeConstMem {
			setupRegs[n.vreg] = true
		}
	}
	for _, n := range dag.Nodes {
		if n.Kind == NodeExpr || n.Kind == NodeLoad {
			if setupRegs[n.vreg] {
				t.Fatalf("chunk node reuses setup register %v", n.vreg)
			}
		}
	}
	_ = plan
}

// TestBuildPlanRegisterReuse: a long dependency chain must fit in the
// register file through reuse (each expr kills its operand).
func TestBuildPlanRegisterReuse(t *testing.T) {
	// 12 chained ops + 12 distinct imms: 25 nodes — without reuse this
	// exceeds 16 registers; with reuse the chain needs ~2 plus one per
	// live imm.
	dag, patterns := chainDAG(11)
	if len(dag.Nodes) <= armlite.NumVRegs {
		t.Fatalf("test needs >16 nodes, has %d", len(dag.Nodes))
	}
	if _, err := BuildPlan(dag, patterns, armlite.Word); err != nil {
		t.Fatalf("reuse should make this fit: %v", err)
	}
}

// TestBuildPlanPressure: too many simultaneously-live setup values
// exhaust the file.
func TestBuildPlanPressure(t *testing.T) {
	patterns := []MemPattern{mkPattern(0, true, 0x2000)}
	var nodes []*Node
	var cur *Node
	// 17 distinct immediates summed pairwise keep all imms live.
	for i := 0; i < 17; i++ {
		imm := &Node{Kind: NodeImm, Imm: int32(i)}
		nodes = append(nodes, imm)
		if cur == nil {
			cur = imm
		} else {
			e := &Node{Kind: NodeExpr, Op: armlite.OpAdd, A: cur, B: imm}
			nodes = append(nodes, e)
			cur = e
		}
	}
	dag := &PayloadDAG{Nodes: nodes, Stores: []StoreSlot{{Pattern: 0, Value: cur}}}
	if _, err := BuildPlan(dag, patterns, armlite.Word); err == nil {
		t.Fatal("17 live broadcasts must exceed the register file")
	}
}

// TestBuildPlanAtBase: allocation respects the base offset.
func TestBuildPlanAtBase(t *testing.T) {
	dag, patterns := chainDAG(1)
	if _, err := BuildPlanAt(dag, patterns, armlite.Word, 10); err != nil {
		t.Fatal(err)
	}
	for _, n := range dag.Nodes {
		if n.vreg < 10 {
			t.Fatalf("node allocated below base: %v", n.vreg)
		}
	}
}

// TestBuildPlanPinned: pinned nodes keep their registers even when
// otherwise dead.
func TestBuildPlanPinned(t *testing.T) {
	patterns := []MemPattern{mkPattern(0, false, 0x1000), mkPattern(1, true, 0x2000)}
	load := &Node{Kind: NodeLoad, Pattern: 0}
	e1 := &Node{Kind: NodeExpr, Op: armlite.OpAdd, A: load, B: load}
	e2 := &Node{Kind: NodeExpr, Op: armlite.OpAdd, A: e1, B: e1}
	dag := &PayloadDAG{Nodes: []*Node{load, e1, e2}, Stores: []StoreSlot{{Pattern: 1, Value: e2}}}
	if _, err := BuildPlanAt(dag, patterns, armlite.Word, 0, load); err != nil {
		t.Fatal(err)
	}
	// With load pinned, e1 and e2 may not take its register.
	if e1.vreg == load.vreg || e2.vreg == load.vreg {
		t.Fatalf("pinned register recycled: load=%v e1=%v e2=%v", load.vreg, e1.vreg, e2.vreg)
	}
}

// TestPlanListingMatchesChunk: the listing contains exactly the chunk's
// loads/ops/stores plus the setup dups.
func TestPlanListingMatchesChunk(t *testing.T) {
	dag, patterns := chainDAG(2)
	plan, err := BuildPlan(dag, patterns, armlite.Word)
	if err != nil {
		t.Fatal(err)
	}
	var loads, stores, ops, dups int
	for _, in := range plan.Listing {
		switch in.Op {
		case armlite.OpVld1:
			loads++
		case armlite.OpVst1:
			stores++
		case armlite.OpVdup:
			dups++
		default:
			ops++
		}
	}
	if loads != 1 || stores != 1 || ops != 2 || dups != 2 {
		t.Errorf("listing: %d loads %d stores %d ops %d dups\n%v",
			loads, stores, ops, dups, plan.Listing)
	}
}

// execEnv builds an executor over a trivial halted machine.
func execEnv(t *testing.T) *Executor {
	t.Helper()
	prog := asm.MustAssemble("x", "halt")
	m := cpu.MustNew(prog, cpu.DefaultConfig())
	return NewExecutor(m, newStats())
}

// TestRunWindowCounts: RunWindow returns the executed iteration count
// per leftover policy.
func TestRunWindowCounts(t *testing.T) {
	dag, patterns := chainDAG(1)
	plan, err := BuildPlan(dag, patterns, armlite.Word)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		policy LeftoverPolicy
		first  int
		last   int
		want   int
	}{
		{LeftoverSingle, 2, 22, 21},
		{LeftoverOverlap, 2, 22, 21},
		{LeftoverScalar, 2, 22, 20}, // 5 chunks of 4, remainder left scalar
		{LeftoverSingle, 2, 9, 8},
		{LeftoverScalar, 2, 4, 0}, // below one chunk
	}
	for _, c := range cases {
		e := execEnv(t)
		e.Begin(patterns)
		got, err := e.RunWindow(plan, c.first, c.last, c.policy, true, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("%v window [%d,%d]: executed %d, want %d", c.policy, c.first, c.last, got, c.want)
		}
	}
}

// TestSpecBufferCommitFiltering: only accepted entries reach memory,
// in order.
func TestSpecBufferCommitFiltering(t *testing.T) {
	e := execEnv(t)
	buf := &SpecBuffer{}
	for i := 0; i < 8; i++ {
		buf.Add(SpecEntry{Addr: uint32(0x100 + 4*i), Size: 4, Value: uint32(i + 1), Iter: i, Tag: i % 2})
	}
	if err := buf.Commit(e, func(iter, tag int) bool { return tag == 0 && iter < 6 }); err != nil {
		t.Fatal(err)
	}
	want := []int32{1, 0, 3, 0, 5, 0, 0, 0}
	got, _ := e.M.Mem.ReadWords(0x100, 8)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("word %d = %d, want %d", i, got[i], want[i])
		}
	}
	if len(buf.Entries) != 0 {
		t.Error("commit must clear the buffer")
	}
}

// TestSpecBufferGroupedCost: contiguous committed lanes retire as
// vector stores, not per-lane element stores.
func TestSpecBufferGroupedCost(t *testing.T) {
	e := execEnv(t)
	buf := &SpecBuffer{}
	for i := 0; i < 16; i++ {
		buf.Add(SpecEntry{Addr: uint32(0x200 + i), Size: 1, Value: 7, Iter: i})
	}
	before := e.M.Counts.VecStores
	if err := buf.Commit(e, func(int, int) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if got := e.M.Counts.VecStores - before; got != 1 {
		t.Errorf("16 contiguous bytes committed as %d stores, want 1", got)
	}
}

// TestEvalElement: scalar evaluation of a plan's nodes matches the
// lane math.
func TestEvalElement(t *testing.T) {
	e := execEnv(t)
	patterns := []MemPattern{mkPattern(0, false, 0x1000)}
	e.SetPatterns(patterns)
	e.M.Mem.WriteWords(0x1000, []int32{10, 20, 30, 40})
	load := &Node{Kind: NodeLoad, Pattern: 0}
	imm := &Node{Kind: NodeImm, Imm: 5}
	expr := &Node{Kind: NodeExpr, Op: armlite.OpMul, A: load, B: imm}
	plan := &Plan{nodes: []*Node{load, imm, expr}}
	// Pattern anchored at iteration 2 → iteration 3 reads word 1 (20).
	vals, err := e.evalElements(plan, 3)
	if err != nil {
		t.Fatal(err)
	}
	if v := vals[expr.ord]; v != 100 {
		t.Errorf("element value = %d, want 100", v)
	}
}
