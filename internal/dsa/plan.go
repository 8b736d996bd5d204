package dsa

import (
	"fmt"
	"math"

	"repro/internal/armlite"
	"repro/internal/cpu"
	"repro/internal/neon"
)

// Plan is a generated SIMD program for one loop payload — the
// dissertation's "built SIMD statements" stored in the DSA cache.
// Setup steps (vdup of invariants) run once per takeover; chunk steps
// run once per group of Lanes iterations.
type Plan struct {
	DT    armlite.DataType
	Lanes int

	setup []planStep
	chunk []planStep

	// Listing is the human-readable generated code for one chunk
	// (Fig. 25's "Generating SIMD Instructions" output).
	Listing []armlite.Instr

	nodes  []*Node
	stores []StoreSlot
}

type stepKind int

const (
	stepDupReg stepKind = iota
	stepDupImm
	stepConstMem
	stepLoad
	stepALU
	stepStore
)

type planStep struct {
	kind    stepKind
	node    *Node // producing node (or store value for stepStore)
	pattern int   // memory pattern index for load/store/constmem
	dst     armlite.VReg
	a, b    armlite.VReg
	op      armlite.Op
	imm     int32
	reg     armlite.Reg
}

// BuildPlan allocates NEON registers for the DAG and lays out the
// generated instruction sequence. It fails when the dataflow needs
// more than the sixteen Q registers.
func BuildPlan(dag *PayloadDAG, patterns []MemPattern, dt armlite.DataType) (*Plan, error) {
	return BuildPlanAt(dag, patterns, dt, 0)
}

// BuildPlanAt is BuildPlan with register allocation starting at base —
// used when several plans (guard + conditional arms) must coexist in
// the register file. Registers of chunk-local values (loads and
// expressions) are reused once dead; setup values (broadcast
// invariants) stay live for the whole window.
func BuildPlanAt(dag *PayloadDAG, patterns []MemPattern, dt armlite.DataType, base armlite.VReg, pinned ...*Node) (*Plan, error) {
	p := &Plan{DT: dt, Lanes: dt.Lanes(), nodes: dag.Nodes, stores: dag.Stores}

	// Liveness: last position each node is consumed. Positions index
	// dag.Nodes; store values and pinned nodes (guard-compare
	// operands read after the chunk) stay live past every node.
	lastUse := make(map[*Node]int, len(dag.Nodes))
	for i, n := range dag.Nodes {
		if n.A != nil {
			lastUse[n.A] = i
		}
		if n.B != nil {
			lastUse[n.B] = i
		}
	}
	for _, s := range dag.Stores {
		lastUse[s.Value] = len(dag.Nodes)
	}
	for _, n := range pinned {
		if n != nil {
			lastUse[n] = len(dag.Nodes)
		}
	}

	used := make([]bool, armlite.NumVRegs)
	for i := 0; i < int(base) && i < len(used); i++ {
		used[i] = true
	}
	alloc := func() (armlite.VReg, error) {
		for i := int(base); i < armlite.NumVRegs; i++ {
			if !used[i] {
				used[i] = true
				return armlite.VReg(i), nil
			}
		}
		return 0, rejectf("vector-register-pressure")
	}
	isSetup := func(n *Node) bool {
		return n.Kind == NodeConstReg || n.Kind == NodeImm || n.Kind == NodeConstMem
	}
	// Phase 1: setup values run once per window and live through every
	// chunk — allocate them first and never recycle their registers.
	for _, n := range dag.Nodes {
		if !isSetup(n) {
			continue
		}
		v, err := alloc()
		if err != nil {
			return nil, err
		}
		n.vreg = v
		switch n.Kind {
		case NodeConstReg:
			p.setup = append(p.setup, planStep{kind: stepDupReg, node: n, dst: v, reg: n.Reg})
		case NodeImm:
			p.setup = append(p.setup, planStep{kind: stepDupImm, node: n, dst: v, imm: n.Imm})
		case NodeConstMem:
			p.setup = append(p.setup, planStep{kind: stepConstMem, node: n, dst: v, pattern: n.Pattern})
		}
	}
	// Phase 2: chunk-local values with linear-scan reuse.
	release := func(pos int, n *Node) {
		if isSetup(n) {
			return
		}
		if lastUse[n] == pos {
			used[n.vreg] = false
		}
	}
	for i, n := range dag.Nodes {
		if isSetup(n) {
			continue
		}
		// Operands dying here free their register before the result
		// allocates (a = op(a, b) style reuse).
		if n.A != nil {
			release(i, n.A)
		}
		if n.B != nil && n.B != n.A {
			release(i, n.B)
		}
		v, err := alloc()
		if err != nil {
			return nil, err
		}
		n.vreg = v
		switch n.Kind {
		case NodeLoad:
			p.chunk = append(p.chunk, planStep{kind: stepLoad, node: n, dst: v, pattern: n.Pattern})
		case NodeExpr:
			st := planStep{kind: stepALU, node: n, dst: v, op: n.Op, imm: n.Imm}
			st.a = n.A.vreg
			if n.B != nil {
				st.b = n.B.vreg
			}
			p.chunk = append(p.chunk, st)
		}
	}
	for _, s := range dag.Stores {
		p.chunk = append(p.chunk, planStep{kind: stepStore, node: s.Value, pattern: s.Pattern, dst: s.Value.vreg})
	}
	p.buildListing(patterns)
	return p, nil
}

// buildListing renders the generated NEON statements for one chunk.
func (p *Plan) buildListing(patterns []MemPattern) {
	add := func(in armlite.Instr) { p.Listing = append(p.Listing, in) }
	for _, s := range p.setup {
		switch s.kind {
		case stepDupReg:
			add(armlite.VDup(p.DT, s.dst, s.reg))
		case stepDupImm:
			// Rendered as a dup through a scratch core register.
			add(armlite.VDup(p.DT, s.dst, armlite.R12))
		case stepConstMem:
			add(armlite.VDup(p.DT, s.dst, patterns[s.pattern].BaseReg))
		}
	}
	for _, s := range p.chunk {
		switch s.kind {
		case stepLoad:
			add(armlite.VLoad(p.DT, s.dst, patterns[s.pattern].BaseReg, true))
		case stepStore:
			add(armlite.VStore(p.DT, s.dst, patterns[s.pattern].BaseReg, true))
		case stepALU:
			vop, _ := armlite.VectorALUOp(s.op)
			if vop == armlite.OpVshl || vop == armlite.OpVshr {
				add(armlite.VShiftImm(vop, p.DT, s.dst, s.a, s.imm))
			} else {
				add(armlite.VALU(vop, p.DT, s.dst, s.a, s.b))
			}
		}
	}
}

// SpecEntry is one buffered speculative store.
type SpecEntry struct {
	Addr  uint32
	Size  int
	Value uint32
	Iter  int // iteration the store belongs to
	Tag   int // conditional path ID (0 otherwise)
}

// SpecBuffer holds speculative stores until the Speculative Execution
// stage selects which to commit (sentinel ranges, conditional masks).
type SpecBuffer struct {
	Entries []SpecEntry
}

// Add buffers one store.
func (b *SpecBuffer) Add(e SpecEntry) { b.Entries = append(b.Entries, e) }

// Commit writes every entry accepted by keep to memory through the
// executor, preserving buffer order, then clears the buffer. Timing
// models the array-map writeback hardware: contiguous runs of lanes
// retire as masked vector stores (one issue + cache access per 16-byte
// span), isolated lanes as element stores.
func (b *SpecBuffer) Commit(e *Executor, keep func(iter, tag int) bool) error {
	runBytes := 0
	var runAddr uint32
	prevEnd := uint32(0)
	flush := func() {
		for off := 0; off < runBytes; off += armlite.VectorBytes {
			e.M.Ticks += neon.MemIssueTicks + e.M.Caches.AccessWrite(runAddr+uint32(off), min(armlite.VectorBytes, runBytes-off))
			e.M.Counts.VecStores++
		}
		runBytes = 0
	}
	for _, s := range b.Entries {
		if !keep(s.Iter, s.Tag) {
			continue
		}
		if err := e.M.Mem.Store(s.Addr, s.Size, s.Value); err != nil {
			return err
		}
		if runBytes > 0 && s.Addr == prevEnd {
			runBytes += s.Size
		} else {
			flush()
			runAddr, runBytes = s.Addr, s.Size
		}
		prevEnd = s.Addr + uint32(s.Size)
	}
	flush()
	b.Entries = b.Entries[:0]
	return nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Discard drops all buffered stores.
func (b *SpecBuffer) Discard() { b.Entries = b.Entries[:0] }

// Executor runs generated plans against a machine: it performs the
// real vector computation on machine memory (so results are exact) and
// charges NEON-engine time.
type Executor struct {
	M     *cpu.Machine
	Stats *Stats

	// faults is the active fault injector (nil in production); its
	// armed state is consumed at window boundaries.
	faults *FaultInjector

	patterns []MemPattern
	vals     [armlite.NumVRegs]neon.Vec

	// Reusable scratch for the steady-state paths (leftover element
	// values, conditional guard masks) — retained across windows so the
	// per-chunk work allocates nothing.
	elemVals []uint32
	maskBuf  []bool
	invBuf   []bool
}

// NewExecutor builds an executor over machine m.
func NewExecutor(m *cpu.Machine, stats *Stats) *Executor {
	return &Executor{M: m, Stats: stats}
}

// Begin charges the takeover overhead (pipeline flush + plan routing)
// and sets the pattern table generated plans index into.
func (e *Executor) Begin(patterns []MemPattern) {
	e.patterns = patterns
	const over = pipelineFlushTicks + planSetupTicks
	e.M.Ticks += over
	if e.Stats != nil {
		e.Stats.OverheadTicks += over
		e.Stats.Takeovers++
	}
}

// SetPatterns switches the pattern table (conditional paths carry
// their own tables).
func (e *Executor) SetPatterns(patterns []MemPattern) { e.patterns = patterns }

func (e *Executor) runSetup(p *Plan) error {
	for _, s := range p.setup {
		switch s.kind {
		case stepDupReg:
			e.vals[s.dst] = neon.Splat(p.DT, e.M.R[s.reg])
			e.M.Ticks += neon.DupTicks
			e.M.Counts.VecDups++
		case stepDupImm:
			e.vals[s.dst] = neon.Splat(p.DT, uint32(s.imm))
			e.M.Ticks += neon.DupTicks
			e.M.Counts.VecDups++
		case stepConstMem:
			pat := &e.patterns[s.pattern]
			v, err := e.M.Mem.Load(pat.AddrA, pat.Size)
			if err != nil {
				return err
			}
			e.vals[s.dst] = neon.Splat(p.DT, v)
			e.M.Ticks += neon.DupTicks + e.M.Caches.Access(pat.AddrA, pat.Size)
			e.M.Counts.VecDups++
			e.M.Counts.Loads++
		}
	}
	return nil
}

// RunWindow executes iterations [firstIter, lastIter] of the payload
// as SIMD: full chunks of p.Lanes iterations, then the leftover
// strategy. Stores go to spec when non-nil (tagged tag), else commit
// directly. disjoint reports whether store streams are disjoint from
// load streams (Overlapping legality). It returns how many iterations
// (from firstIter) were executed — fewer than the window only under
// LeftoverScalar, whose remainder the caller resumes on the ARM core.
func (e *Executor) RunWindow(p *Plan, firstIter, lastIter int,
	policy LeftoverPolicy, disjoint bool, spec *SpecBuffer, tag int) (int, error) {
	if lastIter < firstIter {
		return 0, nil
	}
	if err := e.faults.takeError(); err != nil {
		return 0, err
	}
	if e.faults.truncated() {
		// Injected fault: do none of the work but claim full coverage.
		return lastIter - firstIter + 1, nil
	}
	if err := e.runSetup(p); err != nil {
		return 0, err
	}
	total := lastIter - firstIter + 1
	chunks := total / p.Lanes
	rem := total % p.Lanes

	it := firstIter
	for c := 0; c < chunks; c++ {
		if err := e.runChunk(p, it, p.Lanes, spec, tag, nil); err != nil {
			return 0, err
		}
		it += p.Lanes
	}
	if e.Stats != nil {
		e.Stats.VectorizedIters += uint64(chunks * p.Lanes)
	}
	if rem == 0 {
		return total, nil
	}
	if policy == LeftoverAuto {
		if disjoint && total >= p.Lanes && spec == nil {
			policy = LeftoverOverlap
		} else {
			policy = LeftoverSingle
		}
	}
	switch policy {
	case LeftoverOverlap:
		if !disjoint || total < p.Lanes {
			policy = LeftoverSingle
			break
		}
		// Re-run the final full vector ending exactly at lastIter.
		if err := e.runChunk(p, lastIter-p.Lanes+1, p.Lanes, spec, tag, nil); err != nil {
			return 0, err
		}
		if e.Stats != nil {
			e.Stats.VectorizedIters += uint64(rem)
		}
		return total, nil
	case LeftoverLarger:
		// Round up: process a full chunk beyond the logical end —
		// the caller guarantees padded arrays.
		if err := e.runChunk(p, it, p.Lanes, spec, tag, nil); err != nil {
			return 0, err
		}
		if e.Stats != nil {
			e.Stats.VectorizedIters += uint64(rem)
		}
		return total, nil
	case LeftoverScalar:
		// Caller resumes these iterations on the ARM core.
		return chunks * p.Lanes, nil
	}
	// Single elements.
	for i := it; i <= lastIter; i++ {
		if err := e.runElement(p, i, spec, tag); err != nil {
			return 0, err
		}
	}
	if e.Stats != nil {
		e.Stats.VectorizedIters += uint64(rem)
		e.Stats.LeftoverElements += uint64(rem)
	}
	return total, nil
}

// runChunk executes one group of `lanes` consecutive iterations
// starting at iteration it. With a non-nil mask, stores commit only
// the selected lanes (conditional full speculation); otherwise stores
// go to spec when non-nil or straight to memory.
func (e *Executor) runChunk(p *Plan, it, lanes int, spec *SpecBuffer, tag int, mask []bool) error {
	for _, s := range p.chunk {
		switch s.kind {
		case stepLoad:
			pat := &e.patterns[s.pattern]
			addr := pat.AddrAt(it)
			if err := neon.ReadVec(e.M.Mem, addr, &e.vals[s.dst]); err != nil {
				return err
			}
			e.M.Ticks += neon.MemIssueTicks + e.M.Caches.Access(addr, armlite.VectorBytes)
			e.M.Counts.VecLoads++
			e.M.NEON.Loads++
		case stepALU:
			vop, ok := armlite.VectorALUOp(s.op)
			if !ok {
				return fmt.Errorf("dsa: plan contains unvectorizable op %v", s.op)
			}
			if err := neon.ALUInto(vop, p.DT, &e.vals[s.dst], &e.vals[s.a], &e.vals[s.b], s.imm); err != nil {
				return err
			}
			e.M.Ticks += neon.OpIssueTicks
			e.M.Counts.VecOps++
			e.M.NEON.Ops++
		case stepStore:
			pat := &e.patterns[s.pattern]
			addr := pat.AddrAt(it)
			if mask != nil {
				// Masked retirement: one vector store issue plus a
				// blend op; unselected lanes keep their memory bytes.
				v := e.vals[s.dst]
				for l := 0; l < p.Lanes; l++ {
					if !mask[l] {
						continue
					}
					la := addr + uint32(l*pat.Size)
					if err := e.M.Mem.Store(la, pat.Size, v.LaneU(p.DT, l)); err != nil {
						return err
					}
				}
				e.M.Ticks += neon.MemIssueTicks + neon.OpIssueTicks + e.M.Caches.AccessWrite(addr, armlite.VectorBytes)
				e.M.Counts.VecStores++
				e.M.Counts.VecOps++ // the select/blend
				e.M.NEON.Stores++
				break
			}
			if spec != nil {
				// Buffer lane by lane so partial commits can select
				// individual iterations.
				v := e.vals[s.dst]
				for l := 0; l < p.Lanes; l++ {
					spec.Add(SpecEntry{
						Addr:  addr + uint32(l*pat.Size),
						Size:  pat.Size,
						Value: v.LaneU(p.DT, l),
						Iter:  it + l,
						Tag:   tag,
					})
				}
				e.M.Ticks += neon.MemIssueTicks
				if e.Stats != nil {
					e.Stats.ArrayMapAccesses++
				}
			} else {
				if err := neon.StoreVec(e.M.Mem, addr, e.vals[s.dst]); err != nil {
					return err
				}
				e.M.Ticks += neon.MemIssueTicks + e.M.Caches.AccessWrite(addr, armlite.VectorBytes)
				e.M.Counts.VecStores++
				e.M.NEON.Stores++
			}
		}
	}
	return nil
}

// runElement executes one iteration through the single-element path
// (NEON element loads/stores, §4.8.1).
func (e *Executor) runElement(p *Plan, it int, spec *SpecBuffer, tag int) error {
	vals, err := e.evalElements(p, it)
	// Charge what was evaluated, in node order, even when a node failed:
	// the cache model sees exactly the accesses made before the fault.
	for _, n := range p.nodes[:len(vals)] {
		if n.Kind == NodeLoad {
			pat := &e.patterns[n.Pattern]
			e.M.Ticks += leftoverElementTicks + e.M.Caches.Access(pat.AddrAt(it), pat.Size)
			e.M.Counts.VecLoads++
		} else if n.Kind == NodeExpr {
			e.M.Ticks += neon.OpIssueTicks
			e.M.Counts.VecOps++
		}
	}
	if err != nil {
		return err
	}
	for _, s := range p.stores {
		pat := &e.patterns[s.Pattern]
		addr := pat.AddrAt(it)
		v := vals[s.Value.ord]
		if spec != nil {
			spec.Add(SpecEntry{Addr: addr, Size: pat.Size, Value: v, Iter: it, Tag: tag})
			e.M.Ticks += leftoverElementTicks
		} else {
			if err := e.M.Mem.Store(addr, pat.Size, v); err != nil {
				return err
			}
			e.M.Ticks += leftoverElementTicks + e.M.Caches.AccessWrite(addr, pat.Size)
			e.M.Counts.VecStores++
		}
	}
	return nil
}

// evalElements computes every node of p for iteration it with exactly
// the lane semantics of the vector path, into the executor's reusable
// scratch indexed by node ordinal; it charges no time. On error it
// returns the values of the nodes evaluated before the failing one.
// The slice is valid until the next call.
func (e *Executor) evalElements(p *Plan, it int) ([]uint32, error) {
	if cap(e.elemVals) < len(p.nodes) {
		e.elemVals = make([]uint32, len(p.nodes))
	}
	vals := e.elemVals[:len(p.nodes)]
	for i, n := range p.nodes {
		// p.nodes is topological, so operands already carry this call's
		// ordinals when an expression reads them.
		n.ord = i
		var err error
		switch n.Kind {
		case NodeLoad:
			pat := &e.patterns[n.Pattern]
			vals[i], err = e.M.Mem.Load(pat.AddrAt(it), pat.Size)
		case NodeConstReg:
			vals[i] = e.M.R[n.Reg]
		case NodeConstMem:
			pat := &e.patterns[n.Pattern]
			vals[i], err = e.M.Mem.Load(pat.AddrA, pat.Size)
		case NodeImm:
			vals[i] = uint32(n.Imm)
		case NodeExpr:
			var b uint32
			if n.B != nil {
				b = vals[n.B.ord]
			}
			vals[i], err = evalScalarOp(n.Op, e.elemIsFloat(n), vals[n.A.ord], b, n.Imm)
		default:
			err = fmt.Errorf("dsa: bad node kind %d", n.Kind)
		}
		if err != nil {
			return vals[:i], err
		}
	}
	return vals, nil
}

func (e *Executor) elemIsFloat(n *Node) bool {
	return n.Op == armlite.OpFAdd || n.Op == armlite.OpFSub || n.Op == armlite.OpFMul
}

func evalScalarOp(op armlite.Op, isFloat bool, a, b uint32, imm int32) (uint32, error) {
	if isFloat {
		fa, fb := math.Float32frombits(a), math.Float32frombits(b)
		switch op {
		case armlite.OpFAdd:
			return math.Float32bits(fa + fb), nil
		case armlite.OpFSub:
			return math.Float32bits(fa - fb), nil
		case armlite.OpFMul:
			return math.Float32bits(fa * fb), nil
		}
		return 0, fmt.Errorf("dsa: bad float op %v", op)
	}
	switch op {
	case armlite.OpAdd:
		return a + b, nil
	case armlite.OpSub:
		return a - b, nil
	case armlite.OpMul:
		return a * b, nil
	case armlite.OpAnd:
		return a & b, nil
	case armlite.OpOrr:
		return a | b, nil
	case armlite.OpEor:
		return a ^ b, nil
	case armlite.OpVshl, armlite.OpLsl:
		return a << (uint32(imm) & 31), nil
	case armlite.OpVshr, armlite.OpAsr:
		return uint32(int32(a) >> (uint32(imm) & 31)), nil
	default:
		return 0, fmt.Errorf("dsa: bad scalar op %v", op)
	}
}

// maskOf evaluates the guard condition per lane over the compare
// operand vectors, filling dst with the "branch taken" lanes (dst must
// hold dt.Lanes() entries; the caller owns the buffer).
func maskOf(dst []bool, cond armlite.Cond, dt armlite.DataType, isFloat, forceUnsigned bool, a, b neon.Vec) []bool {
	lanes := dt.Lanes()
	out := dst[:lanes]
	for l := 0; l < lanes; l++ {
		if isFloat {
			fa, fb := a.LaneF(l), b.LaneF(l)
			out[l] = floatCondHolds(cond, fa, fb)
			continue
		}
		sa, sb := int64(a.LaneS(dt, l)), int64(b.LaneS(dt, l))
		ua, ub := uint64(a.LaneU(dt, l)), uint64(b.LaneU(dt, l))
		if forceUnsigned {
			sa, sb = int64(ua), int64(ub)
		}
		switch cond {
		case armlite.CondEQ:
			out[l] = sa == sb
		case armlite.CondNE:
			out[l] = sa != sb
		case armlite.CondLT:
			out[l] = sa < sb
		case armlite.CondLE:
			out[l] = sa <= sb
		case armlite.CondGT:
			out[l] = sa > sb
		case armlite.CondGE:
			out[l] = sa >= sb
		case armlite.CondLO:
			out[l] = ua < ub
		case armlite.CondLS:
			out[l] = ua <= ub
		case armlite.CondHI:
			out[l] = ua > ub
		case armlite.CondHS:
			out[l] = ua >= ub
		default:
			out[l] = true
		}
	}
	return out
}

func floatCondHolds(cond armlite.Cond, a, b float32) bool {
	switch cond {
	case armlite.CondEQ:
		return a == b
	case armlite.CondNE:
		return a != b
	case armlite.CondLT, armlite.CondLO, armlite.CondMI:
		return a < b
	case armlite.CondLE, armlite.CondLS:
		return a <= b
	case armlite.CondGT, armlite.CondHI:
		return a > b
	case armlite.CondGE, armlite.CondHS:
		return a >= b
	default:
		return true
	}
}

// RunCondWindow executes a fully speculative conditional window: per
// chunk it vectorizes the guard, derives the taken mask (one vector
// compare), and retires each arm's stores under its mask. Only whole
// chunks execute; the caller resumes the remainder on the ARM core.
// Returns the number of iterations executed.
func (e *Executor) RunCondWindow(cv *CondVec, firstIter, lastIter int) (int, error) {
	lanes := cv.GuardPlan.Lanes
	total := lastIter - firstIter + 1
	chunks := total / lanes
	if chunks < 1 {
		return 0, nil
	}
	if err := e.faults.takeError(); err != nil {
		return 0, err
	}
	if e.faults.truncated() {
		return chunks * lanes, nil
	}

	// Register allocations are disjoint across the three plans, so
	// one setup pass per window suffices.
	e.SetPatterns(cv.GuardPatterns)
	if err := e.runSetup(cv.GuardPlan); err != nil {
		return 0, err
	}
	for _, arm := range []*CondArm{cv.Taken, cv.Fall} {
		if arm == nil {
			continue
		}
		e.SetPatterns(arm.Patterns)
		if err := e.runSetup(arm.Plan); err != nil {
			return 0, err
		}
	}

	if cap(e.maskBuf) < lanes {
		e.maskBuf = make([]bool, lanes)
		e.invBuf = make([]bool, lanes)
	}
	for c := 0; c < chunks; c++ {
		it := firstIter + c*lanes
		e.SetPatterns(cv.GuardPatterns)
		if err := e.runChunk(cv.GuardPlan, it, lanes, nil, 0, nil); err != nil {
			return 0, err
		}
		// The mask compare itself (vcgt/vceq-class operation).
		taken := maskOf(e.maskBuf, cv.Cond, cv.GuardPlan.DT, cv.Float, cv.Unsigned, e.vals[cv.A.vreg], e.vals[cv.B.vreg])
		e.M.Ticks += neon.OpIssueTicks
		e.M.Counts.VecOps++
		if e.Stats != nil {
			e.Stats.ArrayMapAccesses++
		}
		if cv.Taken != nil {
			e.SetPatterns(cv.Taken.Patterns)
			if err := e.runChunk(cv.Taken.Plan, it, lanes, nil, 0, taken); err != nil {
				return 0, err
			}
		}
		if cv.Fall != nil {
			inv := e.invBuf[:len(taken)]
			for i, t := range taken {
				inv[i] = !t
			}
			e.SetPatterns(cv.Fall.Patterns)
			if err := e.runChunk(cv.Fall.Plan, it, lanes, nil, 0, inv); err != nil {
				return 0, err
			}
		}
	}
	if e.Stats != nil {
		e.Stats.VectorizedIters += uint64(chunks * lanes)
	}
	return chunks * lanes, nil
}
