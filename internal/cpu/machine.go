// Package cpu implements the scalar processor model the DSA couples
// to: an ARMv7-flavoured core executing armlite programs functionally,
// with a trace-level timing model standing in for the dissertation's
// gem5 O3CPU (2-wide superscalar, 1 GHz, 64 KB L1 / 512 KB L2 LRU).
//
// The machine exposes exactly what the DSA hardware taps in Fig. 31:
// the stream of retired instructions with their program-counter values
// and data-memory addresses. External drivers step the machine and feed
// each Record to observers; the dsa package intervenes between steps to
// switch execution onto the NEON engine.
package cpu

import (
	"fmt"

	"repro/internal/armlite"
	"repro/internal/mem"
	"repro/internal/neon"
)

// TicksPerCycle is the tick granularity: 10 ticks = 1 core cycle at
// 1 GHz. Sub-cycle costs (2-wide issue) stay integral this way.
const TicksPerCycle = 10

// Config parameterizes the machine. The timing model is fixed: the
// issue width (IssueWidth), the cache hierarchy (mem.DefaultHierarchy)
// and the NEON issue costs (package neon) are the paper's one setup.
type Config struct {
	// MaxSteps guards against runaway programs (0 = 500M).
	MaxSteps uint64
	// MemBytes sizes the flat memory (0 = mem.DefaultSize).
	MemBytes int
}

// DefaultConfig returns the paper's system setup.
func DefaultConfig() Config {
	return Config{MaxSteps: 500_000_000}
}

// MemAccess is one data-memory reference made by an instruction.
type MemAccess struct {
	Addr  uint32
	Size  int
	Store bool
}

// Record describes one retired instruction — the DSA's observation
// feed. PC values are instruction indices (the dissertation's
// "instruction addresses").
//
// Instr points into the machine's program, so filling a Record per
// step costs one pointer write instead of a ~100-byte struct copy.
// The pointer is stable for the lifetime of the machine: the program
// is immutable once a Machine is built (rewriting passes like the
// auto-vectorizer clone before mutating), so observers may retain it
// across Step calls.
type Record struct {
	Seq    uint64 // dynamic instruction number
	PC     int
	Instr  *armlite.Instr
	Taken  bool // branch outcome (false for non-branches)
	NextPC int
	Mem    [2]MemAccess // capacity for straddling ops; Nmem used
	Nmem   int
}

// Counts aggregates retired-instruction classes; the energy model
// consumes these.
type Counts struct {
	Total     uint64
	ALU       uint64 // integer data processing incl. compares
	Mul       uint64
	Div       uint64
	FP        uint64
	Loads     uint64
	Stores    uint64
	Branches  uint64
	Nops      uint64
	VecOps    uint64
	VecLoads  uint64
	VecStores uint64
	VecDups   uint64
}

// Machine is the simulated processor.
type Machine struct {
	Prog   *armlite.Program
	Mem    *mem.Memory
	Caches *mem.Hierarchy
	NEON   *neon.Unit

	R      [armlite.NumRegs]uint32
	F      armlite.Flags
	PC     int
	Halted bool

	Ticks  int64 // wall-clock time in ticks
	Steps  uint64
	Counts Counts

	cfg Config

	// cpFree is the single recycled Checkpoint (at most one can be
	// open, so one slot suffices); see checkpoint.go.
	cpFree *Checkpoint

	// pcode is the predecoded program (see predecode.go), fixed at
	// construction.
	pcode []pInstr

	// The host tap (SetCancelCheck). cancelLeft counts down per retired
	// instruction so the callback runs only once every cancelEvery
	// instructions; the steady-state cost is one decrement and compare.
	cancelFn    func() error
	cancelEvery uint64
	cancelLeft  uint64
}

// New builds a machine for prog. The program must validate.
func New(prog *armlite.Program, cfg Config) (*Machine, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = 500_000_000
	}
	m := &Machine{
		Prog:   prog,
		Mem:    mem.New(cfg.MemBytes),
		Caches: mem.NewHierarchy(mem.DefaultHierarchy()),
		NEON:   neon.New(),
		cfg:    cfg,
		pcode:  predecode(prog),
	}
	return m, nil
}

// MustNew is New for known-good programs; panics on error.
func MustNew(prog *armlite.Program, cfg Config) *Machine {
	m, err := New(prog, cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// DefaultCancelEvery is the step interval between cancellation checks
// when SetCancelCheck is called with every == 0 — frequent enough that
// a deadline stops a runaway loop within microseconds, rare enough
// that the hot path only pays a counter decrement.
const DefaultCancelEvery = 4096

// SetCancelCheck installs the machine's only host tap: check runs
// every `every` retired instructions, in Step and in both fast loops
// (Run without an observer, RunToBackBranch), before the instruction
// retires. Any error aborts the run with an error wrapping both
// ErrCanceled and check's error. Pass a context's Err method to plumb
// deadlines and batch shutdown into the step loop; pass nil to remove
// the tap. The countdown is independent of Steps, so checkpoint
// rollbacks (which restore Steps) cannot starve or double-fire it.
//
// The DSA's takeover drivers step the machine through Step, so the
// check can fire inside a takeover with a cpu.Checkpoint open. A
// callback that writes snapshots belongs on dsa.System.SetRunHook,
// which fires only at engine-quiescent points; on a machine without
// takeovers every check falls on a step boundary.
func (m *Machine) SetCancelCheck(check func() error, every uint64) {
	if every == 0 {
		every = DefaultCancelEvery
	}
	m.cancelFn = check
	m.cancelEvery = every
	m.cancelLeft = every
}

// Observer receives each retired instruction.
type Observer interface {
	Observe(r *Record)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(r *Record)

// Observe implements Observer.
func (f ObserverFunc) Observe(r *Record) { f(r) }

// Run steps the machine to completion, feeding each record to obs
// (which may be nil).
func (m *Machine) Run(obs Observer) error {
	if obs == nil {
		return m.runQuiet()
	}
	var rec Record
	for !m.Halted {
		if err := m.Step(&rec); err != nil {
			return err
		}
		obs.Observe(&rec)
	}
	return nil
}

// runQuiet is the observer-free run loop. With nobody reading the
// Record, the per-step fill (in particular the Instr pointer store,
// which drags a GC write barrier into the loop) is dead work, so this
// loop skips it; architectural state, timing and counters advance
// exactly as Step does.
func (m *Machine) runQuiet() error {
	var rec Record
	for !m.Halted {
		if m.cancelFn != nil {
			if m.cancelLeft--; m.cancelLeft == 0 {
				m.cancelLeft = m.cancelEvery
				if err := m.cancelFn(); err != nil {
					return fmt.Errorf("%w at pc=%d after %d steps: %w", ErrCanceled, m.PC, m.Steps, err)
				}
			}
		}
		if m.Steps >= m.cfg.MaxSteps {
			return fmt.Errorf("%w: %d steps at pc=%d (runaway loop?)", ErrMaxSteps, m.cfg.MaxSteps, m.PC)
		}
		pc := m.PC
		if uint(pc) >= uint(len(m.pcode)) {
			return fmt.Errorf("%w: pc %d outside program", ErrInvalidPC, pc)
		}
		m.Steps++
		if err := m.exec(&m.pcode[pc], &rec); err != nil {
			return fmt.Errorf("cpu: pc=%d %q: %w", pc, m.Prog.Code[pc].String(), err)
		}
	}
	return nil
}

// RunToBackBranch runs the machine until a taken backward branch (a
// conditional or unconditional B whose target precedes it) is about to
// retire; it retires that branch and returns its target and address
// with hit=true. The machine halting first returns hit=false.
//
// This is the DSA watch-mode fast path: with no analysis in flight the
// engine's Observe is a no-op for every record except a taken backward
// branch (the only event that can start a loop detection), so the
// driver can skip per-step record filling and the observer call
// entirely. Architectural state, timing and counters advance exactly
// as Step does; callers account the skipped observations in bulk from
// the Steps delta. The branch test reads the predecoded form and the
// current flags before execution — semantically identical to checking
// Record.Taken after retirement, since a B never modifies flags.
func (m *Machine) RunToBackBranch() (target, branchPC int, hit bool, err error) {
	var rec Record
	for !m.Halted {
		if m.cancelFn != nil {
			if m.cancelLeft--; m.cancelLeft == 0 {
				m.cancelLeft = m.cancelEvery
				if err := m.cancelFn(); err != nil {
					return 0, 0, false, fmt.Errorf("%w at pc=%d after %d steps: %w", ErrCanceled, m.PC, m.Steps, err)
				}
			}
		}
		if m.Steps >= m.cfg.MaxSteps {
			return 0, 0, false, fmt.Errorf("%w: %d steps at pc=%d (runaway loop?)", ErrMaxSteps, m.cfg.MaxSteps, m.PC)
		}
		pc := m.PC
		if uint(pc) >= uint(len(m.pcode)) {
			return 0, 0, false, fmt.Errorf("%w: pc %d outside program", ErrInvalidPC, pc)
		}
		u := &m.pcode[pc]
		surface := u.kind == pB && int(u.target) < pc && u.cond.Holds(m.F)
		m.Steps++
		if err := m.exec(u, &rec); err != nil {
			return 0, 0, false, fmt.Errorf("cpu: pc=%d %q: %w", pc, m.Prog.Code[pc].String(), err)
		}
		if surface {
			return int(u.target), pc, true, nil
		}
	}
	return 0, 0, false, nil
}

// Step retires one instruction, filling rec in place (to avoid a
// per-instruction allocation on the hot path). Dispatch runs over the
// predecoded program; rec.Instr points at the armlite source of the
// retired instruction.
func (m *Machine) Step(rec *Record) error {
	if m.Halted {
		return fmt.Errorf("cpu: machine is halted")
	}
	if m.cancelFn != nil {
		if m.cancelLeft--; m.cancelLeft == 0 {
			m.cancelLeft = m.cancelEvery
			if err := m.cancelFn(); err != nil {
				return fmt.Errorf("%w at pc=%d after %d steps: %w", ErrCanceled, m.PC, m.Steps, err)
			}
		}
	}
	if m.Steps >= m.cfg.MaxSteps {
		return fmt.Errorf("%w: %d steps at pc=%d (runaway loop?)", ErrMaxSteps, m.cfg.MaxSteps, m.PC)
	}
	pc := m.PC
	if uint(pc) >= uint(len(m.pcode)) {
		return fmt.Errorf("%w: pc %d outside program", ErrInvalidPC, pc)
	}
	u := &m.pcode[pc]
	rec.Seq = m.Steps
	rec.PC = pc
	rec.Instr = &m.Prog.Code[pc]
	rec.Taken = false
	rec.Nmem = 0
	m.Steps++

	if err := m.exec(u, rec); err != nil {
		return fmt.Errorf("cpu: pc=%d %q: %w", rec.PC, m.Prog.Code[pc].String(), err)
	}
	rec.NextPC = m.PC
	return nil
}
