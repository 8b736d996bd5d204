package dsa

import (
	"repro/internal/armlite"
	"repro/internal/cpu"
	"repro/internal/energy"
	"repro/internal/policy"
)

// ReqKind discriminates takeover requests the engine hands the system.
type ReqKind int

// Request kinds.
const (
	ReqVector      ReqKind = iota // count/function/dynamic-range: full window takeover
	ReqConditional                // mapped/speculative conditional execution
	ReqSentinel                   // speculative-range sentinel execution
)

// Request asks the system to switch execution onto the NEON engine.
type Request struct {
	Kind     ReqKind
	Analysis *Analysis
	// StartIter is the first loop iteration to execute as SIMD
	// (iterations are 1-based; the request fires at the end of
	// iteration StartIter-1).
	StartIter int
	// TotalIters is the predicted total trip count (0 for sentinel).
	TotalIters int
	// SpecRange is the sentinel speculative window in iterations.
	SpecRange int
	// Cached is the DSA-cache entry backing this request (for
	// sentinel range updates).
	Cached *CachedLoop
}

// Engine is the DSA detection hardware: it owns the DSA cache and the
// verification cache, tracks every live loop, and raises Requests.
type Engine struct {
	cfg    Config
	m      *cpu.Machine
	Cache  *DSACache
	VCache *VCache
	stats  *Stats

	live    []*track
	pending *Request

	// policy is the adaptive takeover controller (nil unless
	// Config.EnablePolicy). It gates loop entries at both decision
	// points — analysis on a cache miss, takeover on a cache hit — and
	// accumulates measured win/loss outcomes per loop PC.
	policy *policy.Controller

	// kindOf deduplicates the loop-type census by static loop ID.
	kindOf map[int]LoopKind

	// free and reqFree recycle decided tracks and consumed takeover
	// requests so the steady-state watch path allocates nothing. A
	// request returns to the pool only via ReleaseRequest, after its
	// takeover fully completes — requests raised while another is in
	// flight (e.g. during verification replays) are distinct objects,
	// so an in-flight request can never be handed out twice.
	free    []*track
	reqFree []*Request
}

// NewEngine builds the detection engine observing machine m.
func NewEngine(m *cpu.Machine, cfg Config) *Engine {
	if cfg.DSACacheBytes == 0 {
		cfg = DefaultConfig()
	}
	e := &Engine{
		cfg:    cfg,
		m:      m,
		Cache:  NewDSACache(cfg.DSACacheBytes),
		VCache: NewVCache(cfg.VCacheBytes),
		stats:  newStats(),
		kindOf: make(map[int]LoopKind),
	}
	if cfg.EnablePolicy {
		e.policy = policy.New(policy.Params{})
	}
	return e
}

// Policy returns the adaptive takeover controller, or nil when the
// engine runs without one.
func (e *Engine) Policy() *policy.Controller { return e.policy }

// energyNow evaluates the energy model over the cumulative counters —
// two calls bracket an interval, and their difference is that
// interval's energy. Pure integer-derived float arithmetic, so it is
// bit-deterministic and safe for policy decisions.
func (e *Engine) energyNow() float64 {
	return energy.Compute(energy.DefaultParams(), e.m.Counts,
		e.m.Caches.L1Stats(), e.m.Caches.L2Stats(), e.stats.EnergyEvents()).Total()
}

// policyEntry consults the controller for one entry of loop id and
// counts granted trials.
func (e *Engine) policyEntry(id int) policy.Decision {
	d := e.policy.OnEntry(id)
	if d == policy.AllowTrial {
		e.stats.PolicyTrialed++
	}
	return d
}

// policyLoss charges one non-takeover loss (rejected analysis or a
// declined cache-hit takeover) to loop id.
func (e *Engine) policyLoss(id int) {
	if e.policy == nil {
		return
	}
	if e.policy.RecordLoss(id) {
		e.stats.PolicySuspended++
	}
}

// Stats returns the accumulated counters.
func (e *Engine) Stats() *Stats { return e.stats }

// Config returns the engine configuration.
func (e *Engine) Config() Config { return e.cfg }

// TakeRequest returns and clears the pending takeover request.
func (e *Engine) TakeRequest() *Request {
	r := e.pending
	e.pending = nil
	return r
}

// newRequest takes a request object from the pool (or allocates one)
// and fills it.
func (e *Engine) newRequest(r Request) *Request {
	if n := len(e.reqFree); n > 0 {
		p := e.reqFree[n-1]
		e.reqFree = e.reqFree[:n-1]
		*p = r
		return p
	}
	p := new(Request)
	*p = r
	return p
}

// ReleaseRequest returns a consumed request to the pool. Callers must
// hold no references to r afterwards.
func (e *Engine) ReleaseRequest(r *Request) {
	if r == nil {
		return
	}
	*r = Request{}
	e.reqFree = append(e.reqFree, r)
}

// takeTrack opens a track on the live register file, recycling a
// decided track (or allocating a fresh one).
func (e *Engine) takeTrack(id, branchPC int) *track {
	var t *track
	if n := len(e.free); n > 0 {
		t = e.free[n-1]
		e.free = e.free[:n-1]
		t.reset(id, branchPC)
	} else {
		t = newTrack(id, branchPC)
	}
	t.regs = append(t.regs, e.m.R)
	if e.policy != nil {
		// Mark the end of iteration 1: iteration 2's tick and energy
		// deltas sample the loop's own scalar per-iteration cost.
		t.tickMark = e.m.Ticks
		t.energyMark = e.energyNow()
	}
	return t
}

// Observe feeds one retired instruction to the detection logic.
func (e *Engine) Observe(rec *cpu.Record) {
	e.stats.Observations++
	if len(e.live) == 0 {
		// Fast path: no analysis in flight. Only a taken backward
		// branch can start one; everything below (the per-instruction
		// analysis tick, track stepping, justDecided) is a no-op with
		// no live tracks.
		if rec.Instr.Op == armlite.OpB && rec.Taken && rec.Instr.Target < rec.PC {
			e.detectLoop(rec.Instr.Target, rec.PC)
		}
		return
	}
	e.stats.AnalysisTicks += observeTicks
	s := StepRec{PC: rec.PC, Instr: rec.Instr, Taken: rec.Taken}
	if rec.Nmem > 0 {
		s.HasMem = true
		s.MemAddr = rec.Mem[0].Addr
		s.MemSize = rec.Mem[0].Size
		s.MemStore = rec.Mem[0].Store
	}

	// Existing tracks first: the record may close their iteration.
	justDecided := false
	for _, t := range e.live {
		before := t.stage
		e.trackStep(t, &s)
		if t.id == rec.Instr.Target && t.branchPC == rec.PC &&
			before != stDecided && t.stage == stDecided {
			justDecided = true
		}
	}
	e.prune()

	// New-loop detection: a taken backward branch ends iteration 1.
	// A loop whose own track reached a verdict on this very record
	// must not be re-detected (it would immediately hit the entry its
	// decision just inserted and double-raise the takeover).
	if rec.Instr.Op == armlite.OpB && rec.Taken && rec.Instr.Target < rec.PC && !justDecided {
		if e.findTrack(rec.Instr.Target, rec.PC) == nil {
			e.detectLoop(rec.Instr.Target, rec.PC)
		}
	}
}

func (e *Engine) findTrack(id, branchPC int) *track {
	for _, t := range e.live {
		if t.id == id && t.branchPC == branchPC {
			return t
		}
	}
	return nil
}

// setKind files loop id under kind in the census, reclassifying (and
// keeping one entry per static loop) on change.
func (e *Engine) setKind(id int, k LoopKind) {
	if old, ok := e.kindOf[id]; ok {
		if old == k {
			return
		}
		if e.stats.ByKind[old] > 0 {
			e.stats.ByKind[old]--
		}
	}
	e.kindOf[id] = k
	e.stats.ByKind[k]++
}

// prune drops decided tracks, returning them to the free list.
func (e *Engine) prune() {
	out := e.live[:0]
	for _, t := range e.live {
		if t.stage != stDecided {
			out = append(out, t)
		} else {
			e.free = append(e.free, t)
		}
	}
	e.live = out
}

// detectLoop is the Loop Detection stage: consult the DSA cache, then
// either raise an immediate takeover (hit) or begin tracking (miss).
func (e *Engine) detectLoop(id, branchPC int) {
	e.stats.LoopsDetected++
	e.stats.StateTransitions++
	e.stats.DSACacheAccesses++
	e.stats.AnalysisTicks += dsaCacheAccessTicks

	// Any live outer track now contains an inner loop.
	for _, t := range e.live {
		if t.inBody(id) || t.inBody(branchPC) {
			t.innerLoops = true
			t.kind = KindNested
			e.setKind(t.id, KindNested)
			t.stage = stDecided
		}
	}
	e.prune()

	if cached, ok := e.Cache.Lookup(id); ok {
		e.stats.DSACacheHits++
		e.onCacheHit(cached, branchPC)
		return
	}
	// Adaptive gate (analysis level): a suspended loop is observed —
	// the detection hardware cannot help seeing its back branch — but
	// no track is opened, so no analysis energy or host time is spent.
	if e.policy != nil && e.policyEntry(id) == policy.Deny {
		return
	}
	e.live = append(e.live, e.takeTrack(id, branchPC))
}

// onCacheHit handles a previously verified loop: re-raise its
// takeover, or re-analyze when the range mechanism shows a new limit
// (dynamic-range type A, Fig. 24).
func (e *Engine) onCacheHit(c *CachedLoop, branchPC int) {
	if !c.Vectorizable {
		// Known non-vectorizable: skip all analysis.
		return
	}
	if e.pending != nil {
		// One takeover request at a time; this entry runs scalar and
		// the next entry will hit again.
		return
	}
	// Adaptive gate (takeover level): suspended loops stay scalar.
	if e.policy != nil && e.policyEntry(c.LoopID) == policy.Deny {
		return
	}
	a := c.Analysis
	limitNow, limitKnown := e.currentLimit(a)
	if limitKnown && !c.LimitIsImm && limitNow != c.LimitValue {
		// Range changed since the verdict: dynamic-range loop.
		if !e.cfg.EnableDynamicRange {
			e.stats.RejectedReasons["dynamic-range-disabled"]++
			return
		}
		e.setKind(c.LoopID, KindDynamicRange)
		c.LimitValue = limitNow
		t := e.takeTrack(c.LoopID, branchPC)
		t.kind = KindDynamicRange
		e.live = append(e.live, t)
		e.stats.AnalysisTicks += partialReanalysisTicks
		return
	}
	if !e.rebase(a) {
		// Cannot recompute stream bases from the register file;
		// re-analyze from scratch.
		e.live = append(e.live, e.takeTrack(c.LoopID, branchPC))
		return
	}
	switch a.Kind {
	case KindSentinel:
		e.pending = e.newRequest(Request{Kind: ReqSentinel, Analysis: a, StartIter: 2,
			SpecRange: specRangeFor(c.SentinelRange, a.Lanes()), Cached: c})
	case KindConditional:
		n := e.predictTotal(a, 1)
		if n-2 < 2*a.Lanes() {
			// Declining a cached loop costs one cache lookup — too cheap
			// to count as a policy loss (a loop with variable trip counts
			// would otherwise get benched for its short entries even when
			// its long entries win).
			return // too short to pay for the switch this entry
		}
		e.pending = e.newRequest(Request{Kind: ReqConditional, Analysis: a, StartIter: 2, TotalIters: n, Cached: c})
	default:
		n := e.predictTotal(a, 1)
		if n-2 < 2*a.Lanes() {
			// Cheap cached decline — not a policy loss (see above).
			return // too short to pay for the switch this entry
		}
		// Re-validate the dependency prediction under the new range.
		res := e.predictCID(a.Patterns, 2, n)
		if res.HasCID && !a.Partial {
			if !e.cfg.EnablePartial || res.Distance < 2 {
				// Cheap cached decline — not a policy loss (see above).
				return
			}
		}
		a.CID = res
		a.Partial = res.HasCID
		e.pending = e.newRequest(Request{Kind: ReqVector, Analysis: a, StartIter: 2, TotalIters: n, Cached: c})
	}
}

// predictCID runs the Dependency Analysis over iterations
// [first, last] and charges its comparators to the stats.
func (e *Engine) predictCID(patterns []MemPattern, first, last int) CIDResult {
	res := PredictCID(patterns, first, last)
	e.stats.CIDPCompares += uint64(res.Compares)
	e.stats.AnalysisTicks += int64(res.Compares) * cidpCompareTicks
	return res
}

// currentLimit reads the trip-limit value from the live register file.
func (e *Engine) currentLimit(a *Analysis) (uint32, bool) {
	if a.Trip.CounterReg == armlite.NoReg {
		return 0, false
	}
	if a.Trip.LimitIsImm {
		return uint32(a.Trip.LimitImm), true
	}
	if a.Trip.LimitReg.Valid() {
		return e.m.R[a.Trip.LimitReg], true
	}
	return 0, false
}

// predictTotal computes the total trip count given that doneIters
// iterations have completed, reading live register values.
func (e *Engine) predictTotal(a *Analysis, doneIters int) int {
	limit, ok := e.currentLimit(a)
	if !ok {
		return 0
	}
	rem, ok := a.Trip.Remaining(e.m.R[a.Trip.CounterReg], limit)
	if !ok {
		return 0
	}
	return doneIters + rem
}

// rebase recomputes every pattern's reference address from the live
// register file — the state at the end of iteration k is exactly the
// state entering iteration k+1, so each post-index stream restarts at
// its base register's current value. Multi-occurrence sites cannot be
// rebased this way.
func (e *Engine) rebase(a *Analysis) bool {
	for i := range a.Patterns {
		p := &a.Patterns[i]
		if p.MultiOcc {
			return false
		}
	}
	rebaseSlice := func(ps []MemPattern) bool {
		for i := range ps {
			p := &ps[i]
			addr, ok := evalMemOperand(&p.Mem, &e.m.R)
			if !ok {
				return false
			}
			// The register file at the end of iteration k holds the
			// state entering iteration k+1; takeovers on a cache hit
			// start at iteration 2, so anchor the stream there.
			p.AddrA = addr
			p.AddrB = addr + uint32(p.Stride)
			p.RefIterA = 2
			p.RefIterB = 3
		}
		return true
	}
	if !rebaseSlice(a.Patterns) {
		return false
	}
	if a.Cond != nil {
		for pi := range a.Cond.Paths {
			if !rebaseSlice(a.Cond.Paths[pi].patterns) {
				return false
			}
		}
	}
	return true
}

// evalMemOperand computes the effective address of a memory operand
// under the given register file (pre-execution semantics).
func evalMemOperand(mo *armlite.Mem, r *[armlite.NumRegs]uint32) (uint32, bool) {
	if !mo.Base.Valid() {
		return 0, false
	}
	base := r[mo.Base]
	switch mo.Kind {
	case armlite.AddrPostIndex:
		return base, true
	case armlite.AddrRegOffset:
		if !mo.Index.Valid() {
			return 0, false
		}
		return base + (r[mo.Index] << mo.Shift), true
	default:
		if mo.Writeback {
			return base, true
		}
		return base + uint32(mo.Offset), true
	}
}

// specRangeFor picks the sentinel speculative window: the smallest
// multiple of the lane count covering the last observed range
// (§4.6.5), or one full vector when nothing is known yet.
func specRangeFor(lastRange, lanes int) int {
	if lastRange <= 0 {
		return lanes
	}
	return ((lastRange + lanes - 1) / lanes) * lanes
}

// trackStep advances one live track with one record.
func (e *Engine) trackStep(t *track, s *StepRec) {
	if t.stage == stDecided {
		return
	}
	if !t.inIteration {
		if s.PC == t.id {
			t.beginIteration()
		} else {
			return
		}
	}
	t.observe(s)
	if t.stage == stDecided {
		// observe() itself can reject (record-buffer overflow).
		e.recordVerdict(t, false)
		return
	}

	// Mid-body exit taken: the loop ended inside an iteration.
	if t.exitTaken {
		t.exited = true
		e.finalize(t)
		return
	}
	if s.PC == t.branchPC && s.Instr.Op == armlite.OpB {
		if s.Taken {
			e.endIteration(t)
		} else {
			t.exited = true
			e.finalize(t)
		}
	}
}

// finalize closes a track whose loop exited before a verdict.
func (e *Engine) finalize(t *track) {
	if t.stage != stDecided {
		if t.rejected == "" {
			t.rejected = "exited-before-analysis"
		}
		t.stage = stDecided
	}
	e.recordVerdict(t, false)
}

// cacheVerdict inserts the DSA-cache entry for t's vectorizable
// verdict. The entry takes the track's decision inputs (its record log
// and register files) for snapshots; the pooled track starts new ones.
func (e *Engine) cacheVerdict(t *track, entry *CachedLoop) {
	entry.recs, entry.regs = t.log, t.regs
	t.log, t.regs = nil, nil
	e.Cache.Insert(entry)
	e.stats.DSACacheAccesses++
	e.stats.AnalysisTicks += dsaCacheAccessTicks
	e.recordVerdict(t, true)
}

// recordVerdict updates the census and (for definitive rejections)
// the DSA cache.
func (e *Engine) recordVerdict(t *track, vectorizable bool) {
	if vectorizable {
		// Dynamic-range reclassifications keep their census slot.
		if e.kindOf[t.id] != KindDynamicRange || t.kind == KindDynamicRange {
			e.setKind(t.id, t.kind)
		}
		return
	}
	if t.rejected != "" {
		e.stats.RejectedReasons[t.rejected]++
	}
	// Every rejected analysis spent detection work for nothing — a loss
	// in the adaptive ledger (including data-dependent rejections that
	// are NOT cached and would otherwise re-analyze on every entry).
	e.policyLoss(t.id)
	// Data-dependent verdicts (the path mix or coverage may differ on
	// the next entry) are not cached; structural ones are.
	if t.kind == KindNonVectorizable && t.rejected != "exited-before-analysis" &&
		t.rejected != "coverage-incomplete" && t.rejected != "conditional-single-path" {
		// Definitive structural rejections are cached so re-entries
		// skip analysis (the paper stores non-vectorizable IDs too).
		e.setKind(t.id, KindNonVectorizable)
		e.Cache.Insert(&CachedLoop{LoopID: t.id, Kind: KindNonVectorizable, Reason: t.rejected})
		e.stats.DSACacheAccesses++
		e.stats.AnalysisTicks += dsaCacheAccessTicks
	}
}

// Blacklist pins loopID in the DSA cache as non-vectorizable after a
// rolled-back takeover, so every future entry of the loop skips
// analysis and runs scalar — the paper's safety guarantee (anything
// unverifiable stays on the ARM core) enforced at run time.
func (e *Engine) Blacklist(loopID int, cause string) {
	e.setKind(loopID, KindNonVectorizable)
	e.Cache.Insert(&CachedLoop{LoopID: loopID, Kind: KindNonVectorizable, Reason: "fallback:" + cause})
	e.stats.DSACacheAccesses++
	e.stats.AnalysisTicks += dsaCacheAccessTicks
	// Any pending offer is stale once its loop (or a sibling) failed.
	if e.pending != nil {
		e.ReleaseRequest(e.pending)
		e.pending = nil
	}
}

// NoteVectorized informs outer tracks that an inner region executed
// as SIMD (their record stream has a gap there).
func (e *Engine) NoteVectorized(bodyStart, bodyEnd int) {
	for _, t := range e.live {
		if t.inBody(bodyStart) || t.inBody(bodyEnd) {
			t.hasInnerVec = true
			t.kind = KindNested
			t.stage = stDecided
			e.setKind(t.id, KindNested)
		}
	}
	e.prune()
}

// endIteration processes a completed iteration — the per-iteration
// state-machine transition of Fig. 12.
func (e *Engine) endIteration(t *track) {
	t.iter++
	t.inIteration = false
	e.stats.StateTransitions++

	// Register snapshots and cumulative delta verification.
	t.regs = append(t.regs, e.m.R)
	if t.iter >= 2 {
		prev, cur := &t.regs[len(t.regs)-2], &t.regs[len(t.regs)-1]
		for r := 0; r < armlite.NumRegs; r++ {
			d := int64(int32(cur[r] - prev[r]))
			if t.iter == 2 {
				t.delta[r] = d
				t.deltaOK[r] = true
			} else if t.deltaOK[r] && t.delta[r] != d {
				t.deltaOK[r] = false
			}
		}
	}

	switch {
	case t.iter == 2:
		if e.policy != nil {
			// Iteration 2 ran fully scalar between the marks: its cost
			// is the per-iteration baseline a takeover must beat.
			e.policy.SetBaseline(t.id, e.m.Ticks-t.tickMark, e.energyNow()-t.energyMark)
		}
		e.dataCollection(t)
	case t.iter == 3 && !t.condSeen:
		e.dependencyAnalysis(t)
	default:
		if t.condSeen {
			e.mappingStage(t)
		} else if t.stage != stDecided {
			// Simple loops decide at iteration 3; reaching here means
			// an earlier stage rejected but kept tracking — close.
			e.finalize(t)
		}
	}
}

// dataCollection is the iteration-2 stage: store the iteration's
// records and its data-memory addresses in the verification cache.
func (e *Engine) dataCollection(t *track) {
	t.stage = stCollected
	e.stats.StateTransitions++

	e.VCache.Reset()
	cur := t.cur()
	for i := range cur {
		r := &cur[i]
		if !r.HasMem {
			continue
		}
		e.stats.VCacheAccesses++
		e.stats.AnalysisTicks += vcacheAccessTicks
		if !e.VCache.Record(r.PC, r.MemAddr, r.MemSize, r.MemStore, r.Instr.DT) {
			e.stats.VCacheOverflows++
			t.reject("vcache-overflow")
			e.recordVerdict(t, false)
			return
		}
	}
	if t.condSeen {
		t.stage = stMapping
		e.recordPath(t)
	}
}

// dependencyAnalysis is the iteration-3 stage for non-conditional
// loops: derive the trip mechanism and memory patterns, run the CIDP,
// extract the payload and decide.
func (e *Engine) dependencyAnalysis(t *track) {
	e.stats.StateTransitions++
	if t.exitSeen || e.deriveTrip(t) == nil {
		// Data-dependent exit: sentinel path.
		e.decideSentinel(t)
		return
	}
	e.decideSimple(t)
}
