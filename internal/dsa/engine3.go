package dsa

import (
	"repro/internal/armlite"
)

// maxMappingIters bounds how long the Mapping stage keeps waiting for
// condition coverage before giving up.
const maxMappingIters = 40

// recordPath files the just-completed iteration under its control-path
// signature (the paper's condition indexing by instruction address,
// §4.6.4.1, generalized to executed-PC signatures).
func (e *Engine) recordPath(t *track) {
	sig := t.signature()
	p := t.paths[sig]
	if p == nil {
		t.paths[sig] = &pathInfo{firstIt: t.iter}
		return
	}
	if p.secondIt == 0 {
		p.secondIt = t.iter
	}
}

// mappingStage runs at the end of every iteration of a conditional
// loop until all conditions are discovered and verified.
func (e *Engine) mappingStage(t *track) {
	e.stats.StateTransitions++
	if !e.cfg.EnableConditional {
		t.reject("conditional-disabled")
		e.recordVerdict(t, false)
		return
	}
	if t.exitSeen {
		t.reject("conditional-sentinel-mix")
		e.recordVerdict(t, false)
		return
	}
	if t.sawCall {
		t.reject("conditional-function-mix")
		e.recordVerdict(t, false)
		return
	}
	e.recordPath(t)
	if t.iter > maxMappingIters {
		t.reject("coverage-incomplete")
		e.recordVerdict(t, false)
		return
	}
	if !t.coveredAll() {
		return // pending conditions (§4.6.4: keep looking)
	}
	for _, p := range t.paths {
		if p.secondIt == 0 {
			return // a condition needs a second observation for strides
		}
	}
	if e.deriveTrip(t) == nil {
		t.reject("trip-underivable")
		e.recordVerdict(t, false)
		return
	}
	e.decideConditional(t)
}

// bodySeq extracts the ordered body-PC sequence of one iteration.
func bodySeq(t *track, recs []StepRec) []int {
	var seq []int
	for i := range recs {
		if t.inBody(recs[i].PC) {
			seq = append(seq, recs[i].PC)
		}
	}
	return seq
}

// commonPrefixSuffix splits the paths' PC sequences into shared
// header, per-path middles, and shared tail.
func commonPrefixSuffix(seqs [][]int) (prefix, suffix int) {
	if len(seqs) == 0 {
		return 0, 0
	}
	minLen := len(seqs[0])
	for _, s := range seqs {
		if len(s) < minLen {
			minLen = len(s)
		}
	}
	prefix = 0
	for prefix < minLen {
		v := seqs[0][prefix]
		same := true
		for _, s := range seqs[1:] {
			if s[prefix] != v {
				same = false
				break
			}
		}
		if !same {
			break
		}
		prefix++
	}
	suffix = 0
	for suffix < minLen-prefix {
		v := seqs[0][len(seqs[0])-1-suffix]
		same := true
		for _, s := range seqs[1:] {
			if s[len(s)-1-suffix] != v {
				same = false
				break
			}
		}
		if !same {
			break
		}
		suffix++
	}
	return prefix, suffix
}

// decideConditional verifies and vectorizes a conditional loop
// (§4.6.4): per-condition dataflow, cross-condition dependency checks
// and the array-map budget.
func (e *Engine) decideConditional(t *track) {
	t.stage = stDecided
	e.stats.StateTransitions++
	fail := func(reason string) {
		t.reject(reason)
		e.recordVerdict(t, false)
	}

	paths := make([]*pathInfo, 0, len(t.paths))
	for _, p := range t.paths {
		paths = append(paths, p)
	}
	// Deterministic order: by first-iteration observation.
	for i := 0; i < len(paths); i++ {
		for j := i + 1; j < len(paths); j++ {
			if paths[j].firstIt < paths[i].firstIt {
				paths[i], paths[j] = paths[j], paths[i]
			}
		}
	}

	if len(paths) < 2 {
		// Every analysis iteration took the same path: the condition
		// never varied, so per-path speculation has nothing to select
		// between — and a later flip would take an unverified path.
		fail("conditional-single-path")
		return
	}
	seqs := make([][]int, len(paths))
	for i, p := range paths {
		seqs[i] = bodySeq(t, t.window(p.firstIt))
	}
	nPrefix, nSuffix := commonPrefixSuffix(seqs)
	if nPrefix == 0 {
		fail("no-common-header")
		return
	}

	env := e.buildRegEnv(t, t.cur())
	trip := t.trip
	rem, ok := trip.Remaining(t.lastRegs()[trip.CounterReg], t.tripLimitValue())
	if !ok {
		fail("trip-underivable")
		return
	}
	n := t.iter + rem

	// Header flag-setters and branches are structural (guards); the
	// trip compare and induction updates too.
	structural := t.structuralPCs(env, t.cur())

	var (
		allPatterns []MemPattern
		condPaths   []CondPath
		actionPCs   = make(map[int]bool)
		elemDT      armlite.DataType
		totalStores int
		maxNodes    int
		actionDefs  armlite.RegSet
		guardUses   armlite.RegSet

		// Saved context of the first non-empty path for guard
		// vectorization.
		guardFeed   []StepRec
		guardPats   []MemPattern
		guardPatIdx map[memKey]int
	)

	for pi, p := range paths {
		seq := seqs[pi]
		middleLo, middleHi := nPrefix, len(seq)-nSuffix // [lo, hi) in seq index space

		if middleLo >= middleHi {
			// Empty middle: the not-taken arm of an if-only loop.
			condPaths = append(condPaths, CondPath{ID: -1, PCs: map[int]bool{}})
			continue
		}

		// Split the path's records into header+middle (fed to the
		// extractor) and tail (structural only). Guard instructions —
		// flag setters and branches anywhere in the path, including
		// the chained compares of if/elif/else ladders (Fig. 22's
		// multi-condition loops) — keep executing scalar; only the
		// remaining action instructions are skipped and vectorized.
		var feed []StepRec
		bodyIdx := 0
		middlePCs := make(map[int]bool)
		guardPCs := make(map[int]bool)
		for _, r := range t.window(p.firstIt) {
			if !t.inBody(r.PC) {
				fail("record-outside-body")
				return
			}
			isGuard := r.Instr.Op.SetsFlagsAlways() || r.Instr.SetFlags || r.Instr.Op.IsBranch()
			if bodyIdx < middleHi {
				feed = append(feed, r)
				if isGuard {
					guardPCs[r.PC] = true
				}
				if bodyIdx >= middleLo {
					middlePCs[r.PC] = true
				}
			} else {
				// Tail: must be structural glue.
				in := r.Instr
				isGlue := structural[r.PC] ||
					(in.Op == armlite.OpB) || in.Op == armlite.OpNop
				if !isGlue {
					fail("payload-in-tail")
					return
				}
			}
			bodyIdx++
		}

		// Structural set for extraction: loop glue plus every guard.
		pstruct := make(map[int]bool, len(structural)+len(guardPCs))
		for pc := range structural {
			pstruct[pc] = true
		}
		for pc := range guardPCs {
			pstruct[pc] = true
		}

		// Patterns for this path: header sites observed every
		// iteration (use iterations 2 and 3); middle sites observed at
		// the path's own two iterations.
		pats, patIdx, err := e.buildPathPatterns(t, p, middlePCs)
		if err != nil {
			fail(reasonOf(err))
			return
		}
		// Header stores cannot be buffered per path — reject.
		for _, mp := range pats {
			if mp.Store && !middlePCs[mp.PC] && !structural[mp.PC] {
				fail("store-in-header")
				return
			}
		}

		// The path's action: middle instructions minus the guards.
		actionSet := make(map[int]bool, len(middlePCs))
		for pc := range middlePCs {
			if !guardPCs[pc] && !structural[pc] {
				actionSet[pc] = true
			}
		}
		if len(actionSet) == 0 {
			// Chain arm with no payload of its own.
			condPaths = append(condPaths, CondPath{ID: -1, PCs: map[int]bool{}})
			continue
		}

		dag, dt, err := extractPayload(feed, env, pats, patIdx, pstruct)
		if err != nil {
			fail(reasonOf(err))
			return
		}
		// Only middle stores belong to the condition's action.
		for _, s := range dag.Stores {
			if !middlePCs[pats[s.Pattern].PC] {
				fail("store-in-header")
				return
			}
		}
		if elemDT == 0 {
			elemDT = dt
		} else if elemDT != dt {
			fail("mixed-element-widths")
			return
		}
		plan, err := BuildPlan(dag, pats, dt)
		if err != nil {
			fail(reasonOf(err))
			return
		}

		id := -1
		for pc := range actionSet {
			if id == -1 || pc < id {
				id = pc
			}
		}
		for pc := range actionSet {
			if actionPCs[pc] {
				// Two conditions sharing action instructions cannot
				// be told apart at run time.
				fail("ambiguous-conditional")
				return
			}
		}
		cp := CondPath{ID: id, PCs: actionSet, Payload: dag, plan: plan, patterns: pats}
		condPaths = append(condPaths, cp)
		if guardFeed == nil {
			guardFeed = feed[:middleLo]
			guardPats = pats
			guardPatIdx = patIdx
		}
		for pc := range actionSet {
			actionPCs[pc] = true
			actionDefs = actionDefs.Union(e.m.Prog.Code[pc].Defs())
		}
		totalStores += len(dag.Stores)
		if len(dag.Nodes) > maxNodes {
			maxNodes = len(dag.Nodes)
		}
		// Base the global CID check on every pattern.
		allPatterns = append(allPatterns, pats...)
	}

	// An induction (address/index) register updated inside a
	// condition's action only advances on iterations taking that
	// path; its measured per-iteration delta is then an artifact of
	// the analysis window, and predicted store addresses would be
	// wrong the moment the path mix changes. Reject (the qsort
	// partition's swap index is the canonical case).
	for _, r := range actionDefs.Regs() {
		if env.class(r) == clInduction {
			fail("action-updates-induction")
			return
		}
	}
	// Guard/tail uses must not depend on action-defined registers.
	for pc := t.id; pc <= t.branchPC; pc++ {
		if !actionPCs[pc] {
			guardUses = guardUses.Union(e.m.Prog.Code[pc].Uses())
		}
	}
	for _, r := range actionDefs.Regs() {
		if guardUses.Has(r) {
			fail("condition-live-out")
			return
		}
	}

	cid := e.predictCID(allPatterns, 2, n)
	if cid.HasCID {
		fail("cross-iteration-dependency")
		return
	}

	freeRegs := armlite.NumVRegs - maxNodes
	if freeRegs < 0 {
		freeRegs = 0
	}
	if totalStores > e.cfg.ArrayMaps+freeRegs {
		fail("array-map-overflow")
		return
	}

	ca := &CondAnalysis{ActionPCs: actionPCs, Paths: condPaths, StoreSlots: totalStores}
	ca.Vec = e.tryGuardVectorization(t, env, seqs, nPrefix, condPaths, elemDT,
		guardFeed, guardPats, guardPatIdx)

	if ca.Vec == nil {
		// Mapped-mode profitability: per window, every condition's
		// action is vectorized once and committed through the array
		// maps while the guards still run scalar each iteration. That
		// only pays when the skipped scalar work (lanes × average
		// action size) outweighs the per-path vector work.
		nonEmpty, actionInstrs, vecWork := 0, 0, 0
		for i := range condPaths {
			p := &condPaths[i]
			if len(p.PCs) == 0 {
				continue
			}
			nonEmpty++
			actionInstrs += len(p.PCs)
			vecWork += 15*(len(p.Payload.Nodes)+len(p.Payload.Stores)) + 25
		}
		if nonEmpty == 0 {
			fail("conditional-unprofitable")
			return
		}
		lanes := elemDT.Lanes()
		benefit := lanes * (actionInstrs / nonEmpty) * 10
		if benefit <= vecWork {
			fail("conditional-unprofitable")
			return
		}
	}

	a := &Analysis{
		LoopID:    t.id,
		BranchPC:  t.branchPC,
		Kind:      KindConditional,
		Trip:      *trip,
		Induction: inductionMap(env),
		Patterns:  allPatterns,
		ElemDT:    elemDT,
		Cond:      ca,
	}
	t.kind = KindConditional
	t.analysis = a

	entry := &CachedLoop{
		LoopID:       t.id,
		Kind:         KindConditional,
		Vectorizable: true,
		Analysis:     a,
		LimitValue:   t.tripLimitValue(),
		LimitIsImm:   trip.LimitIsImm,
	}
	e.cacheVerdict(t, entry)

	if n-t.iter < a.Lanes() {
		e.policyLoss(t.id) // analysis paid, nothing taken over
		return
	}
	if e.pending == nil {
		e.pending = e.newRequest(Request{Kind: ReqConditional, Analysis: a, StartIter: t.iter + 1, TotalIters: n, Cached: entry})
	}
}

// buildPathPatterns derives patterns for one condition path: shared
// (header/tail) sites from the first two iterations observing them,
// middle sites from the path's two observations.
func (e *Engine) buildPathPatterns(t *track, p *pathInfo, middlePCs map[int]bool) ([]MemPattern, map[memKey]int, error) {
	var patterns []MemPattern
	patIdx := make(map[memKey]int)
	occ := make(map[int]int)
	recs := t.window(p.firstIt)
	for i := range recs {
		r := &recs[i]
		if !r.HasMem {
			continue
		}
		o := occ[r.PC]
		occ[r.PC] = o + 1
		if o > 0 {
			return nil, nil, rejectf("multi-occurrence-in-conditional")
		}
		k := memKey{pc: r.PC, occ: 0}
		iterA, iterB := p.firstIt, p.secondIt
		if !middlePCs[r.PC] {
			// Shared site: use the first two iterations observing it.
			iterA, iterB = 0, 0
			for it := 2; it <= t.iter && iterB == 0; it++ {
				if _, ok := siteAddr(t.window(it), r.PC, 0); !ok {
					continue
				}
				if iterA == 0 {
					iterA = it
				} else {
					iterB = it
				}
			}
		}
		addrA, okA := siteAddr(t.window(iterA), r.PC, 0)
		addrB, okB := siteAddr(t.window(iterB), r.PC, 0)
		if !okA || !okB {
			return nil, nil, rejectf("irregular-memory-site")
		}
		mp, err := NewMemPattern(r.PC, r.MemStore, r.Instr.DT, r.MemSize, iterA, iterB, addrA, addrB)
		if err != nil {
			return nil, nil, rejectf("non-linear-access")
		}
		mp.BaseReg = r.Instr.Mem.Base
		mp.Mem = r.Instr.Mem
		patterns = append(patterns, mp)
		patIdx[k] = len(patterns) - 1
	}
	return patterns, patIdx, nil
}

// tryGuardVectorization attempts the full-speculation plan (§4.6.4.2
// at vector width): the guard computation feeding the diverging branch
// is itself extracted as lane values, so the branch outcome becomes a
// SIMD mask and no per-iteration scalar work remains. Returns nil when
// the mapped (per-iteration) mode must be used instead.
func (e *Engine) tryGuardVectorization(t *track, env *regEnv,
	seqs [][]int, nPrefix int, condPaths []CondPath, elemDT armlite.DataType,
	guardFeed []StepRec, guardPats []MemPattern, guardPatIdx map[memKey]int) *CondVec {
	if !e.cfg.EnableGuardVec {
		return nil
	}
	if len(condPaths) != 2 || guardFeed == nil || nPrefix < 1 {
		return nil
	}
	divergePC := seqs[0][nPrefix-1]
	code := e.m.Prog.Code
	br := code[divergePC]
	if br.Op != armlite.OpB || br.Cond == armlite.CondAL {
		return nil
	}
	// The guard compare: last flag setter in the header feed.
	cmpPC := -1
	for i := len(guardFeed) - 1; i >= 0; i-- {
		in := guardFeed[i].Instr
		if in.Op.SetsFlagsAlways() || in.SetFlags {
			cmpPC = guardFeed[i].PC
			break
		}
	}
	if cmpPC < 0 {
		return nil
	}
	structural := map[int]bool{divergePC: true, t.branchPC: true}
	gdag, aN, bN, isF, gdt, err := extractGuard(guardFeed, env, guardPats, guardPatIdx, structural, cmpPC)
	if err != nil || gdt != elemDT {
		return nil
	}

	// Sub-word lanes: the scalar compare sees zero-extended 32-bit
	// values, which equals an unsigned lane compare — but only when
	// both operands are raw loads or in-range constants (arithmetic
	// could have left the 32-bit value outside the lane's range).
	unsigned := false
	if elemDT.Size() < 4 && !isF {
		limit := int64(1) << uint(8*elemDT.Size())
		for _, n := range []*Node{aN, bN} {
			switch n.Kind {
			case NodeLoad, NodeConstMem:
			case NodeImm:
				if int64(n.Imm) < 0 || int64(n.Imm) >= limit {
					return nil
				}
			default:
				return nil
			}
		}
		unsigned = true
	}

	// Which arm does the taken branch reach?
	target := br.Target
	takenIdx, fallIdx := -1, -1
	for i := range condPaths {
		if condPaths[i].PCs[target] {
			takenIdx = i
		}
	}
	for i := range condPaths {
		if i != takenIdx {
			fallIdx = i
		}
	}
	if takenIdx == -1 {
		// Branch jumps straight to the tail: the taken arm is the
		// empty path.
		for i := range condPaths {
			if len(condPaths[i].PCs) == 0 {
				takenIdx = i
			} else {
				fallIdx = i
			}
		}
	}
	if takenIdx == -1 || fallIdx == -1 {
		return nil
	}

	// Disjoint register allocation: guard at 0, arms above it.
	base := armlite.VReg(len(gdag.Nodes))
	gplan, err := BuildPlanAt(gdag, guardPats, elemDT, 0, aN, bN)
	if err != nil {
		return nil
	}
	mkArm := func(idx int) (*CondArm, bool) {
		p := &condPaths[idx]
		if len(p.PCs) == 0 || p.Payload == nil {
			return nil, true
		}
		plan, err := BuildPlanAt(p.Payload, p.patterns, elemDT, base)
		if err != nil {
			return nil, false
		}
		base += armlite.VReg(len(p.Payload.Nodes))
		return &CondArm{Plan: plan, Patterns: p.patterns}, true
	}
	taken, ok := mkArm(takenIdx)
	if !ok {
		return nil
	}
	fall, ok := mkArm(fallIdx)
	if !ok {
		return nil
	}
	if taken == nil && fall == nil {
		return nil
	}
	return &CondVec{
		GuardPlan:     gplan,
		GuardPatterns: guardPats,
		A:             aN,
		B:             bN,
		Cond:          br.Cond,
		Float:         isF,
		Unsigned:      unsigned,
		Taken:         taken,
		Fall:          fall,
	}
}
