package dsa

import (
	"bytes"
	"fmt"

	"repro/internal/armlite"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/neon"
)

// VerifyConfig configures the differential oracle. When enabled,
// every takeover that commits is shadowed by a scalar replay of the
// same loop from the takeover checkpoint, and the two executions are
// diffed — registers, flags, exit PC and every touched memory page —
// at the loop's exit. The replay runs on the machine itself through
// the checkpoint journal (an undo-log fork), so no second memory
// image is needed.
type VerifyConfig struct {
	// Enabled turns the oracle on.
	Enabled bool
	// Fallback selects the production safety-net behavior: on a
	// divergence, keep the scalar oracle's (ground-truth) state,
	// blacklist the loop and count a fallback. When false, a
	// divergence is a hard error carrying the full report — the
	// debugging-oracle mode of cmd/dsasim -verify.
	Fallback bool
}

// Divergence is the oracle's report of the first observed mismatch
// between a takeover and its scalar replay.
type Divergence struct {
	LoopID    int
	Kind      LoopKind
	StartIter int    // first iteration the takeover executed as SIMD
	Iters     int    // loop iterations the scalar replay completed
	What      string // first mismatching register / flag / address
}

// Error makes a Divergence usable as a hard error in oracle mode.
func (d *Divergence) Error() string {
	return fmt.Sprintf("dsa verify: loop %d (%s, takeover at iteration %d) diverged from scalar replay after %d iterations: %s",
		d.LoopID, d.Kind, d.StartIter, d.Iters, d.What)
}

// vecOutcome snapshots the speculative execution's result so it can
// be re-applied after the scalar replay confirms it.
type vecOutcome struct {
	r      [armlite.NumRegs]uint32
	f      armlite.Flags
	pc     int
	halted bool
	ticks  int64
	steps  uint64
	counts cpu.Counts

	neonQ      [armlite.NumVRegs]neon.Vec
	neonOps    uint64
	neonLoads  uint64
	neonStores uint64

	pages map[uint32][]byte // page base → bytes after the takeover
}

// verify cross-checks a committed takeover against scalar semantics.
// On entry the takeover has succeeded and cp (with its live journal)
// is still open; verify closes it. Return values:
//
//   - (nil, nil): the replay matched; the speculative outcome —
//     including its timing — is in place.
//   - (div, nil): divergence under VerifyConfig.Fallback; the scalar
//     oracle's state is in place and the caller blacklists the loop.
//   - (div, div) / (nil, err): hard failure (divergence in oracle
//     mode, or the replay itself could not run).
func (s *System) verify(req *Request, cp *cpu.Checkpoint) (*Divergence, error) {
	a := req.Analysis
	s.E.stats.VerifiedTakeovers++
	budget := s.stepBudget()
	lo, hi := a.LoopID, a.BranchPC

	// Phase 1: finish the loop on the ARM core under the takeover's
	// journal (the final iteration plus any scalar leftover), so both
	// executions are compared at the loop's architectural exit. The
	// engine observes these records exactly as it would outside
	// verification; takeover offers raised here are dropped (a second
	// speculation nested inside a verification would be unverifiable).
	if _, err := s.runLoopToExit(lo, hi, budget, true); err != nil {
		s.M.Rollback(cp)
		return nil, fmt.Errorf("dsa verify: completing loop %d: %w", lo, err)
	}

	vec := &vecOutcome{
		r: s.M.R, f: s.M.F, pc: s.M.PC, halted: s.M.Halted,
		ticks: s.M.Ticks, steps: s.M.Steps, counts: s.M.Counts,
		neonQ: s.M.NEON.Q, neonOps: s.M.NEON.Ops,
		neonLoads: s.M.NEON.Loads, neonStores: s.M.NEON.Stores,
		pages: make(map[uint32][]byte),
	}
	for _, p := range cp.Journal.Pages() {
		vec.pages[p] = s.M.Mem.SnapshotPage(p)
	}

	// Phase 2: unwind to the checkpoint and replay the loop scalar.
	// The replay is the ground truth — the engine does not observe it
	// (the oracle is invisible hardware).
	s.M.Rollback(cp)
	j := s.M.Mem.BeginJournal()
	iters, err := s.runLoopToExit(lo, hi, budget, false)
	if err != nil {
		j.Rollback()
		return nil, fmt.Errorf("dsa verify: scalar replay of loop %d: %w", lo, err)
	}

	// Phase 3: diff the two executions.
	if what := s.diffOutcome(vec, j.Pages(), j); what != "" {
		d := &Divergence{LoopID: lo, Kind: a.Kind, StartIter: req.StartIter, Iters: iters, What: what}
		s.E.stats.Divergences++
		j.Commit() // keep the scalar oracle's state either way
		if s.cfg.Verify.Fallback {
			return d, nil
		}
		return d, d
	}

	// Match: reinstate the speculative outcome, which carries the
	// takeover's timing and instruction accounting. State is
	// byte-identical to the scalar replay by construction.
	j.Rollback()
	for p, bytes := range vec.pages {
		if err := s.M.Mem.StoreBlock(p, bytes); err != nil {
			return nil, fmt.Errorf("dsa verify: restoring page %#x: %w", p, err)
		}
	}
	s.M.R, s.M.F, s.M.PC, s.M.Halted = vec.r, vec.f, vec.pc, vec.halted
	s.M.Ticks, s.M.Steps, s.M.Counts = vec.ticks, vec.steps, vec.counts
	s.M.NEON.Q = vec.neonQ
	s.M.NEON.Ops, s.M.NEON.Loads, s.M.NEON.Stores = vec.neonOps, vec.neonLoads, vec.neonStores
	return nil, nil
}

// runLoopToExit steps the machine scalar until the loop [lo, hi] is
// architecturally exited, returning the number of completed back-edge
// iterations. A BL inside the body (function loops) leaves the PC
// range without leaving the loop, so exit is PC-out-of-range at call
// depth zero. With observe set the engine sees every record (takeover
// offers raised along the way are dropped and counted).
func (s *System) runLoopToExit(lo, hi int, budget uint64, observe bool) (int, error) {
	var rec cpu.Record
	var spent uint64
	iters, depth := 0, 0
	for !s.M.Halted && (depth > 0 || (s.M.PC >= lo && s.M.PC <= hi)) {
		if spent++; spent > budget {
			return iters, fmt.Errorf("loop did not exit within %d steps", budget)
		}
		if err := s.M.Step(&rec); err != nil {
			return iters, err
		}
		switch rec.Instr.Op {
		case armlite.OpBL:
			depth++
		case armlite.OpBX:
			if depth > 0 {
				depth--
			}
		case armlite.OpB:
			if depth == 0 && rec.Taken && rec.Instr.Target == lo {
				iters++
			}
		}
		if observe {
			s.E.Observe(&rec)
			if r := s.E.TakeRequest(); r != nil {
				s.E.stats.DroppedRequests++
				s.E.ReleaseRequest(r)
			}
		}
	}
	return iters, nil
}

// diffOutcome compares the speculative outcome against the machine's
// current (scalar replay) state and returns a description of the
// first mismatch, or "" when the executions agree. Memory is compared
// over the union of both executions' touched pages: for a page the
// takeover wrote, its snapshot must equal the replay's bytes; for a
// page only the replay wrote, the takeover's content is the
// checkpoint image, which the replay journal saved.
func (s *System) diffOutcome(vec *vecOutcome, scalarPages []uint32, j *mem.Journal) string {
	if vec.pc != s.M.PC {
		return fmt.Sprintf("exit pc = %d (scalar %d)", vec.pc, s.M.PC)
	}
	if vec.halted != s.M.Halted {
		return fmt.Sprintf("halted = %v (scalar %v)", vec.halted, s.M.Halted)
	}
	for r := 0; r < armlite.NumRegs; r++ {
		if vec.r[r] != s.M.R[r] {
			return fmt.Sprintf("r%d = %#x (scalar %#x)", r, vec.r[r], s.M.R[r])
		}
	}
	if vec.f != s.M.F {
		return fmt.Sprintf("flags = %+v (scalar %+v)", vec.f, s.M.F)
	}

	seen := make(map[uint32]bool, len(vec.pages)+len(scalarPages))
	var union []uint32
	for p := range vec.pages {
		seen[p] = true
		union = append(union, p)
	}
	for _, p := range scalarPages {
		if !seen[p] {
			union = append(union, p)
		}
	}
	sortU32(union)
	// Precompute the takeover's written-page bounds: pages outside
	// [vecLo, vecHi] cannot be in vec.pages, so the common disjoint case
	// skips the map lookup entirely (the replay journal's saved image is
	// authoritative there).
	var vecLo, vecHi uint32
	haveVec := len(vec.pages) > 0
	if haveVec {
		first := true
		for p := range vec.pages {
			if first || p < vecLo {
				vecLo = p
			}
			if first || p > vecHi {
				vecHi = p
			}
			first = false
		}
	}
	for _, p := range union {
		var vecBytes []byte
		ok := false
		if haveVec && p >= vecLo && p <= vecHi {
			vecBytes, ok = vec.pages[p]
		}
		if !ok {
			// The takeover never wrote this page: its content there is
			// the checkpoint image the replay journal preserved.
			vecBytes = j.SavedPage(p)
		}
		scalarBytes := s.M.Mem.PageView(p)
		if len(scalarBytes) >= len(vecBytes) && bytes.Equal(vecBytes, scalarBytes[:len(vecBytes)]) {
			continue // fast path: page agrees byte-for-byte
		}
		for i := range vecBytes {
			if vecBytes[i] != scalarBytes[i] {
				return fmt.Sprintf("mem[%#x] = %#02x (scalar %#02x)", p+uint32(i), vecBytes[i], scalarBytes[i])
			}
		}
	}
	return ""
}

func sortU32(v []uint32) {
	for i := 1; i < len(v); i++ {
		for k := i; k > 0 && v[k] < v[k-1]; k-- {
			v[k], v[k-1] = v[k-1], v[k]
		}
	}
}
