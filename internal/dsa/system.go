package dsa

import (
	"errors"
	"fmt"

	"repro/internal/armlite"
	"repro/internal/cpu"
	"repro/internal/mem"
)

// ErrStepBudget marks a takeover whose in-loop driver exceeded the
// per-takeover step budget (e.g. a corrupted action-PC map keeping a
// sentinel loop from ever reaching its stop condition). The guarded
// path turns it into a rollback-to-scalar, never a fatal error.
var ErrStepBudget = errors.New("dsa: takeover step budget exceeded")

// System couples a scalar machine with the DSA engine: Scenario 1 of
// Fig. 10 (parallel probing) while stepping normally, Scenario 2
// (NEON execution) when the engine raises a takeover request. Every
// takeover runs under a checkpoint: executor errors, speculation
// overruns and budget blowouts roll the machine back precisely and
// re-run the loop on the ARM core instead of killing the simulation.
type System struct {
	M *cpu.Machine
	E *Engine
	X *Executor

	cfg    Config
	faults *FaultInjector

	// spec is the reusable speculative-store buffer: one takeover runs
	// at a time, and Commit/Discard leave Entries reset, so sentinel
	// and conditional windows share it without allocating per takeover.
	spec SpecBuffer

	// runHook (SetRunHook) fires between steps at engine-quiescent
	// points only — the periodic snapshot tap.
	runHook func() error
}

// NewSystem builds a DSA-equipped machine for prog.
func NewSystem(prog *armlite.Program, cpuCfg cpu.Config, dsaCfg Config) (*System, error) {
	m, err := cpu.New(prog, cpuCfg)
	if err != nil {
		return nil, err
	}
	e := NewEngine(m, dsaCfg)
	s := &System{M: m, E: e, X: NewExecutor(m, e.stats), cfg: e.cfg}
	if e.cfg.Fault.Kind != FaultNone {
		s.faults = newFaultInjector(e.cfg.Fault)
		s.X.faults = s.faults
	}
	return s, nil
}

// Run executes the program to completion with DSA detection active.
//
// Two driving regimes, bit-identical in every counter and decision:
//
//   - Watch mode (no analysis in flight): the engine's Observe is a
//     no-op for every record except a taken backward branch, so the
//     machine runs its quiescent fast loop (cpu.RunToBackBranch) and
//     only surfaces those branches. The skipped observations are
//     accounted in bulk from the step delta; detection fires through
//     the same detectLoop the step path uses.
//   - Step mode (live tracks): every retired instruction is fed to
//     Observe so the per-loop state machines see the full stream.
func (s *System) Run() error {
	var rec cpu.Record
	for !s.M.Halted {
		if len(s.E.live) == 0 {
			before := s.M.Steps
			target, bpc, hit, err := s.M.RunToBackBranch()
			s.E.stats.Observations += s.M.Steps - before
			if err != nil {
				return err
			}
			if hit {
				s.E.detectLoop(target, bpc)
			}
		} else {
			if err := s.M.Step(&rec); err != nil {
				return err
			}
			s.E.Observe(&rec)
		}
		if req := s.E.TakeRequest(); req != nil {
			if err := s.guarded(req); err != nil {
				return fmt.Errorf("dsa takeover at loop %d: %w", req.Analysis.LoopID, err)
			}
			s.E.ReleaseRequest(req)
		}
		// Snapshot tap: only between steps, only with no analysis in
		// flight. A hook due mid-analysis simply fires at the next
		// quiescent point (tracks decide within ~3 iterations).
		if s.runHook != nil && s.E.Quiescent() {
			if err := s.runHook(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Stats returns the engine's counters.
func (s *System) Stats() *Stats { return s.E.Stats() }

// Faults returns the active fault injector (nil outside fault runs).
func (s *System) Faults() *FaultInjector { return s.faults }

// guarded runs one takeover under a checkpoint. A takeover can only
// end two ways: committed with exactly the scalar architectural
// result, or fully unwound with the loop blacklisted and re-executed
// scalar. Errors escape only for faults of the simulation itself
// (e.g. the scalar oracle replay failing, or a divergence in
// hard-verify mode).
func (s *System) guarded(req *Request) error {
	label := s.faults.Arm(req)
	mark := s.policyBegin()
	cp := s.M.Checkpoint()
	err := s.handle(req)
	if err == nil {
		if !s.cfg.Verify.Enabled {
			s.M.Release(cp)
			s.policySettle(req, mark)
			return nil
		}
		div, verr := s.verify(req, cp)
		if verr != nil {
			return verr
		}
		if div == nil {
			// Oracle agreed; the speculative outcome (ticks, steps,
			// counters) is architecturally in place, so the deltas
			// across the takeover are the takeover's own cost.
			s.policySettle(req, mark)
			return nil
		}
		// The oracle's scalar state is already architecturally in
		// place; record the divergence and pin the loop scalar.
		s.fallbackTo(req, fallbackCause(div, label))
		return nil
	}
	// Executor error, speculation overrun or budget blowout: unwind
	// the takeover precisely and resume scalar at the loop head.
	s.M.Rollback(cp)
	if errors.Is(err, cpu.ErrCanceled) || errors.Is(err, cpu.ErrMaxSteps) {
		// Simulation-level aborts (deadline, batch shutdown, global
		// runaway guard) are not the loop's fault: re-running it scalar
		// would hit the same wall. Surface them to the supervisor.
		return err
	}
	s.M.Ticks += pipelineFlushTicks // squash cost of the aborted switch
	s.E.stats.OverheadTicks += pipelineFlushTicks
	s.fallbackTo(req, errorCause(err, label))
	return nil
}

// policyMark captures the cumulative counters entering a takeover so
// policySettle can measure what the takeover actually cost.
type policyMark struct {
	on       bool
	ticks    int64
	vecIters uint64
	energyNJ float64
}

func (s *System) policyBegin() policyMark {
	if s.E.policy == nil {
		return policyMark{}
	}
	return policyMark{
		on:       true,
		ticks:    s.M.Ticks,
		vecIters: s.E.stats.VectorizedIters,
		energyNJ: s.E.energyNow(),
	}
}

// policySettle folds one committed takeover's measured outcome into the
// adaptive ledger: estimated scalar cost (the loop's own sampled
// per-iteration baseline × iterations vectorized) minus the measured
// takeover cost. Rolled-back takeovers never settle — the loop is
// blacklisted structurally, which removes the arm from play entirely.
func (s *System) policySettle(req *Request, mark policyMark) {
	if !mark.on {
		return
	}
	pc := req.Analysis.LoopID
	baseTicks, baseEnergy, ok := s.E.policy.Baseline(pc)
	if !ok {
		return // no sampled baseline (nothing to compare against)
	}
	iters := int64(s.E.stats.VectorizedIters - mark.vecIters)
	tickGain := baseTicks*iters - (s.M.Ticks - mark.ticks)
	energyGain := baseEnergy*float64(iters) - (s.E.energyNow() - mark.energyNJ)
	win, suspended := s.E.policy.RecordTakeover(pc, tickGain, energyGain)
	if win {
		s.E.stats.PolicyKept++
	}
	if suspended {
		s.E.stats.PolicySuspended++
	}
}

// fallbackTo blacklists the loop and counts the fallback.
func (s *System) fallbackTo(req *Request, cause string) {
	s.E.Blacklist(req.Analysis.LoopID, cause)
	s.E.stats.Fallbacks++
	s.E.stats.FallbackReasons[cause]++
}

// errorCause classifies a takeover failure for the fallback counters,
// entirely through typed sentinels (errors.Is) — never message text.
// An armed injected fault claims the takeover's failure regardless of
// which guard tripped, so the harness can attribute every fallback.
func errorCause(err error, faultLabel string) string {
	switch {
	case faultLabel != "":
		return faultLabel
	case errors.Is(err, ErrStepBudget):
		return "step-budget"
	case errors.Is(err, mem.ErrOutOfRange):
		return "out-of-range"
	case errors.Is(err, cpu.ErrInvalidPC):
		return "invalid-pc"
	case errors.Is(err, cpu.ErrUnimplemented):
		return "unimplemented"
	default:
		return "executor-error"
	}
}

// fallbackCause classifies an oracle divergence.
func fallbackCause(_ *Divergence, faultLabel string) string {
	if faultLabel != "" {
		return faultLabel
	}
	return "divergence"
}

func (s *System) handle(req *Request) error {
	a := req.Analysis
	defer s.E.NoteVectorized(a.LoopID, a.BranchPC)
	switch req.Kind {
	case ReqVector:
		return s.runVector(req)
	case ReqSentinel:
		return s.runSentinel(req)
	case ReqConditional:
		return s.runConditional(req)
	default:
		return fmt.Errorf("unknown request kind %d", req.Kind)
	}
}

// stepBudget returns the per-takeover driver budget.
func (s *System) stepBudget() uint64 {
	if s.cfg.TakeoverStepBudget > 0 {
		return s.cfg.TakeoverStepBudget
	}
	return DefaultTakeoverStepBudget
}

// advanceInduction moves every induction register forward by iters
// iterations.
func (s *System) advanceInduction(ind map[armlite.Reg]int64, iters int) {
	for r, d := range ind {
		s.M.R[r] += uint32(d * int64(iters))
	}
}

// runVector handles count/function/dynamic-range loops: vectorize
// iterations [StartIter, N-1], leave the final iteration (plus any
// scalar leftover) to the ARM core so flags and exit state stay exact.
func (s *System) runVector(req *Request) error {
	a := req.Analysis
	start, n := req.StartIter, req.TotalIters
	last := n - 1
	if last < start {
		return nil
	}
	s.X.Begin(a.Patterns)
	disjoint := StoresDisjointFromLoads(a.Patterns, start, last)

	var executed int
	if a.Partial {
		// Dependency windows (§4.5): each window is shorter than the
		// dependency distance, so its loads only read data earlier
		// windows already committed.
		d := a.CID.Distance
		if d < 1 {
			return fmt.Errorf("partial vectorization with distance %d", d)
		}
		for w := start; w <= last; w += d {
			end := w + d - 1
			if end > last {
				end = last
			}
			done, err := s.X.RunWindow(a.plan, w, end, LeftoverSingle, disjoint, nil, 0)
			if err != nil {
				return err
			}
			executed += done
			s.E.stats.AnalysisTicks += partialReanalysisTicks
		}
	} else {
		done, err := s.X.RunWindow(a.plan, start, last, s.cfg.Leftover, disjoint, nil, 0)
		if err != nil {
			return err
		}
		executed = done
	}
	// Resume scalar execution at the first unexecuted iteration.
	s.advanceInduction(a.Induction, executed)
	s.M.PC = a.LoopID
	return nil
}

// runSentinel handles sentinel loops (§4.6.5): the stop-condition
// slice keeps executing scalar while the payload is computed
// speculatively over the speculative range; results past the real
// range are discarded at commit time.
func (s *System) runSentinel(req *Request) error {
	a := req.Analysis
	sent := a.Sent
	start, spec := req.StartIter, req.SpecRange

	s.X.Begin(a.Patterns)
	buf := &s.spec
	buf.Discard() // drop residue from a takeover unwound mid-window
	windowEnd := start + spec - 1
	skipping := true
	if _, err := s.X.RunWindow(a.plan, start, windowEnd, LeftoverSingle, false, buf, 0); err != nil {
		if !errors.Is(err, mem.ErrOutOfRange) {
			return err
		}
		// The speculative window ran past addressable memory; give up
		// on speculation and stay scalar for this entry.
		buf.Discard()
		skipping = false
	}

	// Action-only induction registers (payload pointers) are frozen
	// while iterations are skipped; remember the takeover values.
	actionInd := s.actionInduction(a.Induction, sent.ActionPCs, a.LoopID, a.BranchPC)
	takeoverVals := make(map[armlite.Reg]uint32, len(actionInd))
	for r := range actionInd {
		takeoverVals[r] = s.M.R[r]
	}
	restoreActionRegs := func(itersDone int) {
		for r, d := range actionInd {
			s.M.R[r] = takeoverVals[r] + uint32(d*int64(itersDone))
		}
	}
	// Rematerialize payload temporaries as of the last iteration whose
	// action ran (scalar semantics: the exiting iteration's stop check
	// leaves the previous iteration's temporaries in the registers).
	materializeTemps := func(lastActionIter int) error {
		if lastActionIter < start {
			return nil // every action iteration ran scalar pre-takeover
		}
		s.X.SetPatterns(a.Patterns)
		vals, err := s.X.evalElements(a.plan, lastActionIter)
		if err != nil {
			return err
		}
		for r, node := range sent.RegOut {
			s.M.R[r] = vals[node.ord]
		}
		return nil
	}

	iter := start
	var rec cpu.Record
	var spent uint64
	budget := s.stepBudget()
	for {
		if spent++; spent > budget {
			return fmt.Errorf("sentinel loop after %d driver steps: %w", spent-1, ErrStepBudget)
		}
		if s.M.Halted {
			return fmt.Errorf("halt inside sentinel loop")
		}
		if skipping && sent.ActionPCs[s.M.PC] {
			s.skipRun(sent.ActionPCs)
			continue
		}
		if err := s.M.Step(&rec); err != nil {
			return err
		}
		isBack := rec.PC == a.BranchPC && rec.Instr.Op == armlite.OpB
		exitMid := rec.Instr.Op == armlite.OpB && rec.Taken &&
			(rec.Instr.Target < a.LoopID || rec.Instr.Target > a.BranchPC) &&
			rec.PC != a.BranchPC

		if exitMid {
			// The exiting iteration's action never runs (the stop
			// check precedes the action; verified at analysis).
			if err := buf.Commit(s.X, func(it, _ int) bool { return it < iter }); err != nil {
				return err
			}
			if skipping {
				restoreActionRegs(iter - start)
				if err := materializeTemps(iter - 1); err != nil {
					return err
				}
			}
			s.updateSentinelRange(req, iter-1)
			return nil
		}
		if isBack {
			if rec.Taken {
				iter++
				if skipping && iter > windowEnd {
					// Window exhausted but the loop keeps going:
					// commit what speculation produced so far and
					// open the next speculative window (§4.6.5's
					// partial vectorization of sentinel loops).
					if err := buf.Commit(s.X, func(int, int) bool { return true }); err != nil {
						return err
					}
					windowEnd = iter + spec - 1
					s.E.stats.AnalysisTicks += partialReanalysisTicks
					if _, err := s.X.RunWindow(a.plan, iter, windowEnd, LeftoverSingle, false, buf, 0); err != nil {
						if !errors.Is(err, mem.ErrOutOfRange) {
							return err
						}
						// Out of addressable range: finish scalar.
						buf.Discard()
						skipping = false
						restoreActionRegs(iter - start)
						if err := materializeTemps(iter - 1); err != nil {
							return err
						}
					}
				}
			} else {
				// Natural exit after completing iteration `iter`.
				if err := buf.Commit(s.X, func(it, _ int) bool { return it <= iter }); err != nil {
					return err
				}
				if skipping {
					restoreActionRegs(iter - start + 1)
					if err := materializeTemps(iter); err != nil {
						return err
					}
				}
				s.updateSentinelRange(req, iter)
				return nil
			}
		}
	}
}

// actionInduction filters induction registers to those only updated
// inside the skipped action region — their architectural values
// freeze while iterations are skipped and must be fixed up from the
// measured deltas. The scan covers the loop body only (bodyLo..bodyHi).
func (s *System) actionInduction(ind map[armlite.Reg]int64, actionPCs map[int]bool, bodyLo, bodyHi int) map[armlite.Reg]int64 {
	out := make(map[armlite.Reg]int64)
	code := s.M.Prog.Code
	for r, d := range ind {
		updatedOutside := false
		updatedInside := false
		for pc := bodyLo; pc <= bodyHi && pc < len(code); pc++ {
			if !code[pc].Defs().Has(r) {
				continue
			}
			if actionPCs[pc] {
				updatedInside = true
			} else {
				updatedOutside = true
			}
		}
		if updatedInside && !updatedOutside {
			out[r] = d
		}
	}
	return out
}

// skipRun jumps over a contiguous run of skippable instructions. The
// DSA steers the fetch unit directly (it knows the resume address), so
// the cost is a fraction of a branch redirect.
func (s *System) skipRun(skip map[int]bool) {
	pc := s.M.PC
	for pc < len(s.M.Prog.Code) && skip[pc] {
		pc++
	}
	s.M.PC = pc
	s.M.Ticks += 2
}

func (s *System) updateSentinelRange(req *Request, realRange int) {
	if req.Cached != nil {
		req.Cached.SentinelRange = realRange
	}
}

// runCondVector executes a conditional loop under full speculation:
// guard, mask and both arms all run at vector width; the remainder
// (plus the final iteration) stays scalar.
func (s *System) runCondVector(req *Request) error {
	a := req.Analysis
	start, n := req.StartIter, req.TotalIters
	last := n - 1
	if last < start {
		return nil
	}
	s.X.Begin(a.Patterns)
	done, err := s.X.RunCondWindow(a.Cond.Vec, start, last)
	if err != nil {
		return err
	}
	s.advanceInduction(a.Induction, done)
	s.M.PC = a.LoopID
	return nil
}

// runConditional handles conditional loops (§4.6.4.2). When the guard
// itself vectorizes, the whole loop runs speculatively (runCondVector);
// otherwise scalar guards decide each iteration's condition, each
// condition's action is vectorized once per window into array-map
// storage, and the Speculative stage commits the mapped lanes at
// window end.
func (s *System) runConditional(req *Request) error {
	a := req.Analysis
	cond := a.Cond
	if cond.Vec != nil {
		return s.runCondVector(req)
	}
	lanes := a.Lanes()
	start, n := req.StartIter, req.TotalIters
	numWindows := (n - start) / lanes
	lastVec := start + numWindows*lanes - 1
	if numWindows < 1 {
		return nil
	}

	s.X.Begin(a.Patterns)
	buf := &s.spec
	buf.Discard() // drop residue from a takeover unwound mid-window

	pathOf := make(map[int]int) // action PC → path index
	for pi := range cond.Paths {
		for pc := range cond.Paths[pi].PCs {
			pathOf[pc] = pi
		}
	}
	emptyPath := -1
	for pi := range cond.Paths {
		if len(cond.Paths[pi].PCs) == 0 {
			emptyPath = pi
		}
	}

	// Action-only induction registers (frozen during skipping).
	actionInd := s.actionInduction(a.Induction, cond.ActionPCs, a.LoopID, a.BranchPC)
	takeoverVals := make(map[armlite.Reg]uint32, len(actionInd))
	for r := range actionInd {
		takeoverVals[r] = s.M.R[r]
	}

	iter := start
	windowStart := start
	iterPath := make(map[int]int)
	vectorized := make(map[int]bool)
	sawAction := false
	skipping := true
	var rec cpu.Record
	var spent uint64
	budget := s.stepBudget()

	commitWindow := func(wStart, wEnd int) error {
		if s.E.stats != nil {
			s.E.stats.ArrayMapAccesses += uint64(wEnd - wStart + 1)
		}
		return buf.Commit(s.X, func(it, tag int) bool {
			p, ok := iterPath[it]
			return ok && p == tag && it >= wStart && it <= wEnd
		})
	}

	for {
		if spent++; spent > budget {
			return fmt.Errorf("conditional loop after %d driver steps: %w", spent-1, ErrStepBudget)
		}
		if s.M.Halted {
			return fmt.Errorf("halt inside conditional loop")
		}
		if skipping && cond.ActionPCs[s.M.PC] {
			pi := pathOf[s.M.PC]
			if !vectorized[pi] {
				p := &cond.Paths[pi]
				s.X.SetPatterns(p.patterns)
				if _, err := s.X.RunWindow(p.plan, windowStart, windowStart+lanes-1,
					LeftoverSingle, false, buf, pi); err != nil {
					return err
				}
				vectorized[pi] = true
			}
			iterPath[iter] = pi
			sawAction = true
			s.skipRun(cond.ActionPCs)
			continue
		}
		if err := s.M.Step(&rec); err != nil {
			return err
		}
		if rec.PC == a.BranchPC && rec.Instr.Op == armlite.OpB {
			if !sawAction && skipping {
				if emptyPath < 0 {
					return fmt.Errorf("iteration %d took an unmapped empty path", iter)
				}
				iterPath[iter] = emptyPath
			}
			sawAction = false
			if rec.Taken {
				iter++
				if skipping && iter > windowStart+lanes-1 {
					if err := commitWindow(windowStart, iter-1); err != nil {
						return err
					}
					windowStart = iter
					vectorized = make(map[int]bool)
					if iter > lastVec {
						skipping = false
						for r, d := range actionInd {
							s.M.R[r] = takeoverVals[r] + uint32(d*int64(iter-start))
						}
					}
				}
			} else {
				// Loop exit. Any residue (early exit mid-window) is
				// committed for fully mapped iterations.
				if skipping {
					if err := commitWindow(windowStart, iter); err != nil {
						return err
					}
					for r, d := range actionInd {
						s.M.R[r] = takeoverVals[r] + uint32(d*int64(iter-start+1))
					}
				}
				return nil
			}
		}
	}
}
