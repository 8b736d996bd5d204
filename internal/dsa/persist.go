package dsa

import (
	"fmt"
	"sort"

	"repro/internal/armlite"
	"repro/internal/cpu"
	"repro/internal/snapshot"
)

// Snapshot section names owned by the dsa layer (the cpu layer owns
// meta/cpu/neon/mem/caches).
const (
	secEngine = "dsa.engine"
	secStats  = "dsa.stats"
	secCache  = "dsa.cache"
	secFaults = "dsa.faults"
	secPolicy = "dsa.policy"
)

// Quiescent reports whether the engine is between analyses: no live
// loop tracks and no pending takeover offer. Tracks hold pointers into
// the record stream and decide within a few iterations, so rather than
// serializing them a snapshot simply waits for the next quiescent
// point (System.Run checks after every step).
func (e *Engine) Quiescent() bool { return len(e.live) == 0 && e.pending == nil }

// SetRunHook installs fn to run between steps of System.Run, only at
// engine-quiescent points — the tap for callbacks that write
// snapshots, such as the runner's tick. In watch mode these points
// come at every loop back-branch, so fn should return at once when it
// has nothing due. A non-nil return aborts the run with that error.
// Takeovers are atomic with respect to the hook: it can never observe
// an open cpu.Checkpoint or a half-applied speculative window.
func (s *System) SetRunHook(fn func() error) { s.runHook = fn }

// SaveState appends the full system state — machine plus engine — to
// w. It may only be called at a quiescent point (between System.Run
// steps with no live analysis; the run hook guarantees this).
func (s *System) SaveState(w *snapshot.Writer) error {
	if !s.E.Quiescent() {
		return fmt.Errorf("dsa: snapshot at non-quiescent point (%d live tracks, pending=%v)",
			len(s.E.live), s.E.pending != nil)
	}
	s.M.SaveState(w)
	e := s.E

	var eng snapshot.Enc
	encodeDSAConfig(&eng, &e.cfg)
	kinds := make([]int, 0, len(e.kindOf))
	for id := range e.kindOf {
		kinds = append(kinds, id)
	}
	sort.Ints(kinds)
	eng.U32(uint32(len(kinds)))
	for _, id := range kinds {
		eng.Int(id)
		eng.Int(int(e.kindOf[id]))
	}
	w.Add(secEngine, eng.Bytes())

	var st snapshot.Enc
	encodeStats(&st, e.stats)
	w.Add(secStats, st.Bytes())

	var ca snapshot.Enc
	encodeDSACache(&ca, e.Cache)
	w.Add(secCache, ca.Bytes())

	if s.faults != nil {
		var fa snapshot.Enc
		fa.U64(s.faults.Seen)
		fa.U64(s.faults.Fired)
		w.Add(secFaults, fa.Bytes())
	}

	if e.policy != nil {
		var po snapshot.Enc
		e.policy.Encode(&po)
		w.Add(secPolicy, po.Bytes())
	}
	return nil
}

// RestoreState rebuilds the full system state from r. The snapshot
// must come from a system running the same program under the same cpu
// and dsa configuration (ErrMismatch otherwise). On any error the
// system must be considered unusable — callers rebuild a fresh system
// and restart from zero.
func (s *System) RestoreState(r *snapshot.Reader) error {
	if err := s.M.RestoreState(r); err != nil {
		return err
	}
	e := s.E

	eng, err := dsaSection(r, secEngine)
	if err != nil {
		return err
	}
	if err := checkDSAConfig(eng, &e.cfg); err != nil {
		return err
	}
	e.kindOf = make(map[int]LoopKind)
	nKinds := int(eng.U32())
	for i := 0; i < nKinds && eng.Err() == nil; i++ {
		id := eng.Int()
		e.kindOf[id] = LoopKind(eng.Int())
	}
	if err := eng.Done(); err != nil {
		return err
	}

	st, err := dsaSection(r, secStats)
	if err != nil {
		return err
	}
	// Decoded in place: the Executor shares this *Stats, so the pointer
	// must survive the restore.
	if err := decodeStats(st, e.stats); err != nil {
		return err
	}
	if err := st.Done(); err != nil {
		return err
	}

	// Faults before the cache: the faults fired bound the cidp-skew
	// faults its entries may claim.
	var maxSkews uint64
	if s.faults != nil {
		fa, err := dsaSection(r, secFaults)
		if err != nil {
			return err
		}
		s.faults.Seen = fa.U64()
		s.faults.Fired = fa.U64()
		s.faults.label, s.faults.truncate, s.faults.errOnce = "", false, false
		if err := fa.Done(); err != nil {
			return err
		}
		if e.cfg.Fault.Kind == FaultSkewCIDP {
			maxSkews = s.faults.Fired
		}
	} else if r.Has(secFaults) {
		return fmt.Errorf("%w: snapshot from a fault-injection run restored without fault config", snapshot.ErrMismatch)
	}

	ca, err := dsaSection(r, secCache)
	if err != nil {
		return err
	}
	if err := decodeDSACache(ca, e, s.M.Prog, maxSkews); err != nil {
		return err
	}
	if err := ca.Done(); err != nil {
		return err
	}

	if e.policy != nil {
		po, err := dsaSection(r, secPolicy)
		if err != nil {
			return err
		}
		if err := e.policy.Decode(po); err != nil {
			return err
		}
		if err := po.Done(); err != nil {
			return err
		}
	} else if r.Has(secPolicy) {
		return fmt.Errorf("%w: snapshot from an adaptive-policy run restored without policy config", snapshot.ErrMismatch)
	}

	// Analysis and probing state restart clean: live tracks and the
	// pending request were empty at save time (quiescence), and the
	// verification cache is reset per analysis.
	e.live = nil
	e.pending = nil
	e.VCache.Reset()
	return nil
}

func dsaSection(r *snapshot.Reader, name string) (*snapshot.Dec, error) {
	p, err := r.Section(name)
	if err != nil {
		return nil, err
	}
	return snapshot.NewDec(p), nil
}

// encodeDSAConfig serializes the behavior-determining configuration so
// a resumed run cannot silently continue under different mechanisms
// (which would break bit-identity with the uninterrupted run).
func encodeDSAConfig(e *snapshot.Enc, c *Config) {
	e.Int(c.DSACacheBytes)
	e.Int(c.VCacheBytes)
	e.Int(c.ArrayMaps)
	e.Int(int(c.Leftover))
	e.Bool(c.EnableConditional)
	e.Bool(c.EnableSentinel)
	e.Bool(c.EnableDynamicRange)
	e.Bool(c.EnablePartial)
	e.Bool(c.EnableGuardVec)
	e.U64(c.TakeoverStepBudget)
	e.Bool(c.Verify.Enabled)
	e.Bool(c.Verify.Fallback)
	e.Int(int(c.Fault.Kind))
	e.U64(c.Fault.EveryN)
	e.Bool(c.EnablePolicy)
}

func checkDSAConfig(d *snapshot.Dec, c *Config) error {
	var got snapshot.Enc
	encodeDSAConfig(&got, c)
	want := d.Raw(len(got.Bytes()))
	if d.Err() != nil {
		return d.Err()
	}
	if string(want) != string(got.Bytes()) {
		return fmt.Errorf("%w: snapshot taken under a different DSA configuration", snapshot.ErrMismatch)
	}
	return nil
}

// --- stats ---

func encodeStats(e *snapshot.Enc, s *Stats) {
	e.I64(s.AnalysisTicks)
	e.U64(s.StateTransitions)
	e.U64(s.Observations)
	e.U64(s.DSACacheAccesses)
	e.U64(s.DSACacheHits)
	e.U64(s.VCacheAccesses)
	e.U64(s.VCacheOverflows)
	e.U64(s.ArrayMapAccesses)
	e.U64(s.CIDPCompares)
	e.U64(s.Takeovers)
	e.U64(s.VectorizedIters)
	e.U64(s.LeftoverElements)
	e.I64(s.OverheadTicks)
	e.U64(s.LoopsDetected)
	e.U64(s.Fallbacks)
	e.U64(s.VerifiedTakeovers)
	e.U64(s.Divergences)
	e.U64(s.DroppedRequests)
	e.U64(s.PolicyKept)
	e.U64(s.PolicySuspended)
	e.U64(s.PolicyTrialed)

	kinds := make([]int, 0, len(s.ByKind))
	for k := range s.ByKind {
		kinds = append(kinds, int(k))
	}
	sort.Ints(kinds)
	e.U32(uint32(len(kinds)))
	for _, k := range kinds {
		e.Int(k)
		e.U64(s.ByKind[LoopKind(k)])
	}
	encodeCounters(e, s.RejectedReasons)
	encodeCounters(e, s.FallbackReasons)
}

func decodeStats(d *snapshot.Dec, s *Stats) error {
	s.AnalysisTicks = d.I64()
	s.StateTransitions = d.U64()
	s.Observations = d.U64()
	s.DSACacheAccesses = d.U64()
	s.DSACacheHits = d.U64()
	s.VCacheAccesses = d.U64()
	s.VCacheOverflows = d.U64()
	s.ArrayMapAccesses = d.U64()
	s.CIDPCompares = d.U64()
	s.Takeovers = d.U64()
	s.VectorizedIters = d.U64()
	s.LeftoverElements = d.U64()
	s.OverheadTicks = d.I64()
	s.LoopsDetected = d.U64()
	s.Fallbacks = d.U64()
	s.VerifiedTakeovers = d.U64()
	s.Divergences = d.U64()
	s.DroppedRequests = d.U64()
	s.PolicyKept = d.U64()
	s.PolicySuspended = d.U64()
	s.PolicyTrialed = d.U64()

	s.ByKind = make(map[LoopKind]uint64)
	n := int(d.U32())
	for i := 0; i < n && d.Err() == nil; i++ {
		k := LoopKind(d.Int())
		s.ByKind[k] = d.U64()
	}
	var err error
	if s.RejectedReasons, err = decodeCounters(d); err != nil {
		return err
	}
	if s.FallbackReasons, err = decodeCounters(d); err != nil {
		return err
	}
	return d.Err()
}

func encodeCounters(e *snapshot.Enc, m map[string]uint64) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	e.U32(uint32(len(keys)))
	for _, k := range keys {
		e.Str(k)
		e.U64(m[k])
	}
}

func decodeCounters(d *snapshot.Dec) (map[string]uint64, error) {
	out := make(map[string]uint64)
	n := int(d.U32())
	for i := 0; i < n && d.Err() == nil; i++ {
		k := d.Str()
		out[k] = d.U64()
	}
	return out, d.Err()
}

// --- DSA cache ---

// encodeDSACache writes the learned-loop cache in LRU order (least
// recent first), so decoding can rebuild it through Insert and end up
// with an identical replacement order.
func encodeDSACache(e *snapshot.Enc, c *DSACache) {
	e.U32(uint32(len(c.order)))
	for i := len(c.order) - 1; i >= 0; i-- {
		encodeCachedLoop(e, c.entries[c.order[i]])
	}
}

// decodeDSACache rebuilds the cache from its entries. The entries may
// claim at most maxSkews cidp-skew faults between them.
func decodeDSACache(d *snapshot.Dec, e *Engine, prog *armlite.Program, maxSkews uint64) error {
	c := e.Cache
	n := int(d.U32())
	if d.Err() != nil {
		return d.Err()
	}
	if n > c.capacity {
		return fmt.Errorf("%w: %d cached loops, cache holds %d", snapshot.ErrCorrupt, n, c.capacity)
	}
	c.entries = make(map[int]*CachedLoop, n)
	c.order = nil
	for i := 0; i < n; i++ {
		cl, err := decodeCachedLoop(d, prog, e.cfg)
		if err != nil {
			return err
		}
		if _, dup := c.entries[cl.LoopID]; dup {
			return fmt.Errorf("%w: duplicate cached loop %d", snapshot.ErrCorrupt, cl.LoopID)
		}
		if cl.skews > maxSkews {
			return fmt.Errorf("%w: cached loop %d claims more cidp-skew faults than fired", snapshot.ErrCorrupt, cl.LoopID)
		}
		maxSkews -= cl.skews
		c.Insert(cl)
	}
	return d.Err()
}

// A vectorizable entry is stored as its decision inputs (the records
// and register files its track consumed) plus the scalars that change
// after the verdict. Restore rebuilds Analysis by replaying the inputs
// through the same track and decide code that built it live, so no
// derived structure is ever encoded.
func encodeCachedLoop(e *snapshot.Enc, cl *CachedLoop) {
	e.Int(cl.LoopID)
	e.Int(int(cl.Kind))
	e.Bool(cl.Vectorizable)
	if !cl.Vectorizable {
		e.Str(cl.Reason)
		return
	}
	a := cl.Analysis
	e.Int(a.BranchPC)
	e.U32(uint32(len(cl.regs)))
	for i := range cl.regs {
		for _, v := range cl.regs[i] {
			e.U32(v)
		}
	}
	e.U32(uint32(len(cl.recs)))
	for i := range cl.recs {
		encodeStepRec(e, &cl.recs[i])
	}

	e.U32(cl.LimitValue)
	e.Int(cl.SentinelRange)
	e.Bool(a.CID.HasCID)
	e.Int(a.CID.ConflictIter)
	e.Int(a.CID.Distance)
	e.Int(a.CID.Compares)
	e.Bool(a.Partial)
	e.U64(cl.skews)
}

func decodeCachedLoop(d *snapshot.Dec, prog *armlite.Program, cfg Config) (*CachedLoop, error) {
	id, kind := d.Int(), LoopKind(d.Int())
	if !d.Bool() {
		cl := &CachedLoop{LoopID: id, Kind: kind, Reason: d.Str()}
		return cl, d.Err()
	}
	branchPC := d.Int()
	nRegs := int(d.U32())
	if d.Err() != nil {
		return nil, d.Err()
	}
	if id < 0 || id > branchPC || branchPC >= len(prog.Code) {
		return nil, fmt.Errorf("%w: cached loop %d..%d outside the program", snapshot.ErrCorrupt, id, branchPC)
	}
	if nRegs < 1 || nRegs > maxMappingIters+2 {
		return nil, fmt.Errorf("%w: cached loop %d claims %d register files", snapshot.ErrCorrupt, id, nRegs)
	}
	regs := make([][armlite.NumRegs]uint32, nRegs)
	for i := range regs {
		for r := range regs[i] {
			regs[i][r] = d.U32()
		}
	}
	nRecs := int(d.U32())
	if d.Err() != nil {
		return nil, d.Err()
	}
	if nRecs > (maxMappingIters+1)*maxIterRecords {
		return nil, fmt.Errorf("%w: cached loop %d claims %d records", snapshot.ErrCorrupt, id, nRecs)
	}

	// Replay on a scratch engine: its own stats and caches, no policy,
	// and a machine holding only the program and the register file the
	// track records at each iteration end — the decide code reads
	// nothing else of the machine, so nothing reaches live state.
	// Records stream from the payload straight into the track's log.
	cfg.EnablePolicy = false
	x := NewEngine(&cpu.Machine{Prog: prog}, cfg)
	x.m.R = regs[0]
	t := x.takeTrack(id, branchPC)
	if kind == KindDynamicRange {
		// The only trace a dynamic-range re-analysis leaves on its
		// verdict is the kind decideSimple reports.
		t.kind = KindDynamicRange
	}
	for i := 0; i < nRecs; i++ {
		rec, err := decodeStepRec(d, prog)
		if err != nil {
			return nil, err
		}
		if t.stage == stDecided || (!t.inIteration && rec.PC != id) {
			return nil, fmt.Errorf("%w: record %d of cached loop %d is not part of its analysis", snapshot.ErrCorrupt, i, id)
		}
		if t.iter < nRegs {
			x.m.R = regs[t.iter]
		}
		x.trackStep(t, &rec)
	}
	cl := x.Cache.entries[id]
	if cl == nil || !cl.Vectorizable || cl.Kind != kind || len(cl.regs) != nRegs {
		return nil, fmt.Errorf("%w: inputs of cached loop %d do not replay to a %v verdict", snapshot.ErrCorrupt, id, kind)
	}

	cl.LimitValue = d.U32()
	cl.SentinelRange = d.Int()
	cid := CIDResult{HasCID: d.Bool(), ConflictIter: d.Int(), Distance: d.Int(), Compares: d.Int()}
	partial := d.Bool()
	cl.skews = d.U64()
	if cl.skews > 0 {
		skewStrides(cl.Analysis, cl.skews)
	}
	cl.Analysis.CID, cl.Analysis.Partial = cid, partial
	return cl, d.Err()
}

// StepRec flag bits.
const (
	recTaken = 1 << iota
	recMem
)

// encodeStepRec writes what the interpreter observed: the PC, the
// branch outcome and the access address. The instruction, the access
// width and its direction follow from the program.
func encodeStepRec(e *snapshot.Enc, r *StepRec) {
	var flags uint8
	if r.Taken {
		flags |= recTaken
	}
	if r.HasMem {
		flags |= recMem
	}
	e.U32(uint32(r.PC))
	e.U8(flags)
	if r.HasMem {
		e.U32(r.MemAddr)
	}
}

func decodeStepRec(d *snapshot.Dec, prog *armlite.Program) (StepRec, error) {
	r := StepRec{PC: int(d.U32())}
	flags := d.U8()
	r.Taken, r.HasMem = flags&recTaken != 0, flags&recMem != 0
	if r.HasMem {
		r.MemAddr = d.U32()
	}
	if d.Err() != nil {
		return r, d.Err()
	}
	if r.PC >= len(prog.Code) || flags&^(recTaken|recMem) != 0 {
		return r, fmt.Errorf("%w: step record at PC %d, flags %#x", snapshot.ErrCorrupt, r.PC, flags)
	}
	r.Instr = &prog.Code[r.PC]
	op := r.Instr.Op
	if (r.Taken && !op.IsBranch()) || (r.HasMem && !op.IsMem()) {
		return r, fmt.Errorf("%w: step record at PC %d does not fit its %v", snapshot.ErrCorrupt, r.PC, op)
	}
	if r.HasMem {
		r.MemSize, r.MemStore = r.Instr.DT.Size(), op == armlite.OpStr
		if op == armlite.OpVld1 || op == armlite.OpVst1 {
			r.MemSize, r.MemStore = armlite.VectorBytes, op == armlite.OpVst1
		}
	}
	return r, nil
}
