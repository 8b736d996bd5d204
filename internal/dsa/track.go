package dsa

import (
	"repro/internal/armlite"
)

// LoopKind classifies a detected loop — the taxonomy of Fig. 11 and
// the loop-type census of Article 3 Fig. 7.
type LoopKind int

// Loop kinds.
const (
	KindUnknown      LoopKind = iota
	KindCount                 // fixed range known at the loop entry
	KindFunction              // count loop containing a function call
	KindNested                // outer loop containing inner loops
	KindConditional           // loop with conditional code regions
	KindSentinel              // stop condition computed inside the body
	KindDynamicRange          // range recomputed between executions (type A)
	KindNonVectorizable
)

func (k LoopKind) String() string {
	switch k {
	case KindCount:
		return "count"
	case KindFunction:
		return "function"
	case KindNested:
		return "nested"
	case KindConditional:
		return "conditional"
	case KindSentinel:
		return "sentinel"
	case KindDynamicRange:
		return "dynamic-range"
	case KindNonVectorizable:
		return "non-vectorizable"
	default:
		return "unknown"
	}
}

// stage is the per-loop position in the DSA state machine (Fig. 12).
type stage int

const (
	stDetected  stage = iota // loop seen once; collecting iteration 2
	stCollected              // iteration 2 captured; analyzing iteration 3
	stMapping                // conditional loops: discovering conditions
	stDecided                // verdict reached (takeover requested or rejected)
)

func (s stage) String() string {
	switch s {
	case stDetected:
		return "loop-detection"
	case stCollected:
		return "data-collection"
	case stMapping:
		return "mapping"
	default:
		return "decided"
	}
}

// StepRec is one retired instruction inside a tracked iteration.
// Instr aliases the machine's program (see cpu.Record): the program
// is immutable while a machine runs, so retained records stay valid
// across iterations and takeovers.
type StepRec struct {
	PC       int
	Instr    *armlite.Instr
	Taken    bool
	HasMem   bool
	MemAddr  uint32
	MemSize  int
	MemStore bool
}

// maxIterRecords bounds how many instructions per iteration the DSA
// hardware can buffer; longer iterations are not analyzable.
const maxIterRecords = 8192

// memKey identifies one memory access site within an iteration:
// instruction address plus occurrence number (a function called twice
// per iteration executes the same load PC twice).
type memKey struct {
	pc  int
	occ int
}

// pathInfo captures one control path through a conditional loop's
// body: the first two iterations observed taking it.
type pathInfo struct {
	firstIt  int
	secondIt int
}

// track is the DSA's per-loop analysis state.
type track struct {
	id       int // loop ID = start PC (the back-branch target)
	branchPC int // the back-branch instruction address
	iter     int // completed iterations
	stage    stage
	kind     LoopKind

	inIteration bool
	callDepth   int // >0 while inside a function called from the body
	sawCall     bool
	hasInnerVec bool // an inner loop was vectorized inside this body
	innerLoops  bool // back-branches of other loops observed inside
	tooBig      bool
	exited      bool
	rejected    string // non-empty: rejection reason

	// log holds every record the track consumed since it opened, and
	// starts[k] is where iteration k+2 (the first one a track collects)
	// begins in it. regs holds the register file at track open and at
	// each iteration end. log and regs are the loop's decision inputs
	// and its only observation store: a vectorizable verdict hands them
	// to its CachedLoop, and a snapshot restore replays them
	// (persist.go).
	log    []StepRec
	starts []int
	regs   [][armlite.NumRegs]uint32

	// Per-register deltas between consecutive iteration ends; deltaOK
	// marks registers whose delta was identical across the observed
	// iterations (induction candidates).
	delta   [armlite.NumRegs]int64
	deltaOK [armlite.NumRegs]bool

	// Conditional-loop discovery.
	condSeen  bool
	paths     map[string]*pathInfo
	coverage  map[int]bool // body PCs executed by any iteration
	exitSeen  bool         // mid-body exit branch observed (sentinel hint)
	exitPC    int
	exitTaken bool

	// Adaptive-policy baseline marks: machine ticks and modeled energy
	// at track creation (= the end of iteration 1), so iteration 2's
	// deltas sample the loop's scalar per-iteration cost. Zero outside
	// adaptive mode; set by the engine's takeTrack.
	tickMark   int64
	energyMark float64

	// trip is the derived range mechanism.
	trip *TripInfo

	// analysis is the final artifact on success.
	analysis *Analysis
}

func newTrack(id, branchPC int) *track {
	return &track{
		id:       id,
		branchPC: branchPC,
		iter:     1, // created at the end of the first iteration
		stage:    stDetected,
		paths:    make(map[string]*pathInfo),
		coverage: make(map[int]bool),
	}
}

// reset reinitializes a pooled track for a new loop, retaining map and
// slice backing storage. A decision retains nothing else of the track:
// analysis artifacts are built fresh, and a vectorizable verdict takes
// the log and register files with it (the track starts new ones), so
// reuse cannot alias live state — see the engine's free list.
func (t *track) reset(id, branchPC int) {
	clear(t.paths)
	clear(t.coverage)
	paths, coverage := t.paths, t.coverage
	log, starts, regs := t.log[:0], t.starts[:0], t.regs[:0]
	*t = track{
		id:       id,
		branchPC: branchPC,
		iter:     1,
		stage:    stDetected,
		paths:    paths,
		coverage: coverage,
		log:      log,
		starts:   starts,
		regs:     regs,
	}
}

// bodyLen returns the static body size in instructions.
func (t *track) bodyLen() int { return t.branchPC - t.id + 1 }

// inBody reports whether pc lies in the loop's static body range.
func (t *track) inBody(pc int) bool { return pc >= t.id && pc <= t.branchPC }

// reject marks the loop non-vectorizable.
func (t *track) reject(reason string) {
	if t.rejected == "" {
		t.rejected = reason
	}
	t.kind = KindNonVectorizable
	t.stage = stDecided
}

// beginIteration starts collecting a new iteration.
func (t *track) beginIteration() {
	t.inIteration = true
	t.starts = append(t.starts, len(t.log))
	t.callDepth = 0
}

// cur returns the current (or just completed) iteration's records.
func (t *track) cur() []StepRec { return t.log[t.starts[len(t.starts)-1]:] }

// window returns iteration k's records, or nil when the track did not
// collect iteration k.
func (t *track) window(k int) []StepRec {
	i := k - 2
	if i < 0 || i >= len(t.starts) {
		return nil
	}
	end := len(t.log)
	if i+1 < len(t.starts) {
		end = t.starts[i+1]
	}
	return t.log[t.starts[i]:end]
}

// siteAddr returns the address of the occ-th memory access by pc in
// recs: memory site (pc, occ) as one iteration observed it.
func siteAddr(recs []StepRec, pc, occ int) (uint32, bool) {
	for i := range recs {
		if r := &recs[i]; r.HasMem && r.PC == pc {
			if occ == 0 {
				return r.MemAddr, true
			}
			occ--
		}
	}
	return 0, false
}

// lastRegs returns the register file at the latest iteration end (at
// track open before the first one).
func (t *track) lastRegs() *[armlite.NumRegs]uint32 { return &t.regs[len(t.regs)-1] }

// observe appends one record to the active iteration.
func (t *track) observe(r *StepRec) {
	if !t.inIteration || t.stage == stDecided {
		return
	}
	if len(t.cur()) >= maxIterRecords {
		t.tooBig = true
		t.reject("iteration-too-long")
		return
	}
	t.log = append(t.log, *r)
	if t.inBody(r.PC) {
		t.coverage[r.PC] = true
	}
	// Function-call bookkeeping: a BL leaving the body opens a call.
	switch r.Instr.Op {
	case armlite.OpBL:
		if r.Taken && !t.inBody(r.Instr.Target) {
			t.callDepth++
			t.sawCall = true
		}
	case armlite.OpBX:
		if t.callDepth > 0 {
			t.callDepth--
		}
	case armlite.OpB:
		if r.Taken && !t.inBody(r.Instr.Target) && t.callDepth == 0 && r.PC != t.branchPC {
			// Mid-body exit (sentinel break).
			t.exitSeen = true
			t.exitPC = r.PC
			t.exitTaken = true
		} else if !r.Taken && r.Instr.Cond != armlite.CondAL &&
			t.inBody(r.PC) && !t.inBody(r.Instr.Target) && t.callDepth == 0 && r.PC != t.branchPC {
			// A not-taken branch whose target leaves the body is a
			// sentinel exit check.
			t.exitSeen = true
			t.exitPC = r.PC
		} else if r.Taken && t.inBody(r.Instr.Target) && r.Instr.Cond != armlite.CondAL &&
			r.PC != t.branchPC && r.Instr.Target > r.PC {
			// Conditional forward branch within the body: conditional
			// code (an "instruction addressing gap", §4.6.4.1).
			t.condSeen = true
		} else if !r.Taken && r.Instr.Cond != armlite.CondAL &&
			t.inBody(r.PC) && t.inBody(r.Instr.Target) && r.PC != t.branchPC && r.Instr.Target > r.PC {
			// Even when not taken, a forward conditional branch marks
			// a potential condition region.
			t.condSeen = true
		}
	}
}

// signature canonicalizes the set of body PCs executed this iteration.
func (t *track) signature() string {
	cur := t.cur()
	buf := make([]byte, 0, t.bodyLen())
	for pc := t.id; pc <= t.branchPC; pc++ {
		hit := byte('0')
		for i := range cur {
			if cur[i].PC == pc {
				hit = '1'
				break
			}
		}
		buf = append(buf, hit)
	}
	return string(buf)
}

// covered reports whether every body PC has been executed by some
// observed iteration — the paper's "no pending conditions" test.
func (t *track) coveredAll() bool {
	for pc := t.id; pc <= t.branchPC; pc++ {
		if !t.coverage[pc] {
			return false
		}
	}
	return true
}
