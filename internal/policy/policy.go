// Package policy implements the adaptive takeover policy: a per-loop
// cost/benefit ledger and a deterministic bandit-style controller that
// decides, per loop PC, whether the DSA should analyze and take over a
// loop or leave it on the ARM core.
//
// The paper's headline is *energy-efficient* detection, but a DSA that
// takes over every loop that verifies still pays detection energy (and
// host time) on loops that never win — q_sort's data-dependent loops
// re-analyze on every entry and never vectorize; dijkstra's conditional
// loop takes over and loses. The controller turns the learned-loop
// cache from a correctness cache into a performance policy:
//
//   - Every arm (loop PC) starts in StateKeep: analyses and takeovers
//     proceed exactly as in dsa-extended mode.
//   - Each measured outcome feeds the arm's ledger. A takeover whose
//     measured tick cost beats the scalar estimate (sampled from the
//     loop's own analysis iterations) is a win; a takeover that loses,
//     an analysis that rejects, or a cache-hit entry that declines to
//     take over is a loss.
//   - SuspendAfter consecutive losses move the arm to StateSuspended:
//     the DSA observes the loop (the detection hardware cannot help
//     seeing its back branch) but spends nothing on analysis or
//     takeover.
//   - Every TrialInterval suspended entries the arm gets one trial
//     (StateTrial): the next analysis/takeover runs for real. A winning
//     trial returns the arm to StateKeep; a losing trial re-suspends it
//     and doubles the interval (capped), so hopeless loops cost O(log)
//     trials over a run while genuinely phase-changing loops earn their
//     way back.
//
// Decisions are functions of the arm state and the simulated outcome
// stream only — no wall clock, no randomness — so runs replay
// bit-identically and the controller state serializes through
// internal/snapshot for the resume oracle.
package policy

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/snapshot"
)

// Params tunes the controller. The zero value is replaced by defaults
// field-by-field, so a partially specified Params is usable.
type Params struct {
	// SuspendAfter is the consecutive-loss streak that suspends an arm.
	SuspendAfter int
	// TrialEvery is the initial number of suspended entries between
	// trial takeovers.
	TrialEvery int
	// TrialBackoffMax caps the doubling trial interval.
	TrialBackoffMax int
	// MinTickGain is the minimum measured simulated-tick saving for a
	// takeover to count as a win. One tick keeps break-even takeovers
	// alive; raise it to demand a real margin.
	MinTickGain int64
}

// DefaultParams returns the calibrated controller setup.
func DefaultParams() Params {
	return Params{
		SuspendAfter:    3,
		TrialEvery:      32,
		TrialBackoffMax: 256,
		MinTickGain:     1,
	}
}

func (p Params) withDefaults() Params {
	d := DefaultParams()
	if p.SuspendAfter <= 0 {
		p.SuspendAfter = d.SuspendAfter
	}
	if p.TrialEvery <= 0 {
		p.TrialEvery = d.TrialEvery
	}
	if p.TrialBackoffMax < p.TrialEvery {
		p.TrialBackoffMax = d.TrialBackoffMax
	}
	if p.TrialBackoffMax < p.TrialEvery {
		p.TrialBackoffMax = p.TrialEvery
	}
	if p.MinTickGain <= 0 {
		p.MinTickGain = d.MinTickGain
	}
	return p
}

// State is an arm's position in the bandit state machine.
type State uint8

// Arm states.
const (
	// StateKeep: analyses and takeovers proceed normally.
	StateKeep State = iota
	// StateTrial: a suspended arm's trial is in flight; the next
	// outcome resolves it to Keep (win) or Suspended (loss).
	StateTrial
	// StateSuspended: the DSA observes but neither analyzes nor takes
	// over; entries count toward the next trial.
	StateSuspended
)

func (s State) String() string {
	switch s {
	case StateTrial:
		return "trial"
	case StateSuspended:
		return "suspended"
	default:
		return "keep"
	}
}

// Decision is the controller's answer for one loop entry.
type Decision uint8

// Entry decisions.
const (
	// Allow: proceed (arm is kept, unknown, or mid-trial).
	Allow Decision = iota
	// AllowTrial: proceed, and this entry opened a new trial.
	AllowTrial
	// Deny: stay scalar; spend nothing on this loop.
	Deny
)

// Arm is one loop PC's ledger and bandit state.
type Arm struct {
	State      State
	LossStreak int
	Wins       uint64
	Losses     uint64
	Trials     uint64

	// SinceTrial counts suspended entries since the last trial;
	// TrialInterval is the current (backed-off) trial period.
	SinceTrial    int
	TrialInterval int

	// Ledger: cumulative measured savings (positive = the DSA helped).
	TickGain     int64
	EnergyGainNJ float64

	// Scalar cost estimate per iteration, sampled between the ends of
	// the loop's first two analysis iterations.
	BaselineTicks    int64
	BaselineEnergyNJ float64
	HasBaseline      bool
}

// Controller owns every arm. It is not safe for concurrent use; the
// engine drives it from the single simulation goroutine.
type Controller struct {
	params Params
	arms   map[int]*Arm
}

// New builds a controller.
func New(p Params) *Controller {
	return &Controller{params: p.withDefaults(), arms: make(map[int]*Arm)}
}

// Params returns the effective (defaulted) parameters.
func (c *Controller) Params() Params { return c.params }

// Arm returns pc's arm, or nil if the loop was never recorded.
func (c *Controller) Arm(pc int) *Arm { return c.arms[pc] }

func (c *Controller) arm(pc int) *Arm {
	a, ok := c.arms[pc]
	if !ok {
		a = &Arm{State: StateKeep, TrialInterval: c.params.TrialEvery}
		c.arms[pc] = a
	}
	return a
}

// OnEntry decides one loop entry: the gate consulted both when a cache
// miss would start an analysis and when a cache hit would raise a
// takeover. Suspended arms count the entry toward their trial schedule.
func (c *Controller) OnEntry(pc int) Decision {
	a, ok := c.arms[pc]
	if !ok || a.State == StateKeep || a.State == StateTrial {
		return Allow
	}
	a.SinceTrial++
	if a.SinceTrial >= a.TrialInterval {
		a.SinceTrial = 0
		a.State = StateTrial
		a.Trials++
		return AllowTrial
	}
	return Deny
}

// SetBaseline records the scalar per-iteration cost sampled from the
// loop's own analysis iterations. Re-analyses overwrite it — the most
// recent sample reflects the current phase.
func (c *Controller) SetBaseline(pc int, ticks int64, energyNJ float64) {
	a := c.arm(pc)
	a.BaselineTicks = ticks
	a.BaselineEnergyNJ = energyNJ
	a.HasBaseline = true
}

// Baseline returns the sampled per-iteration scalar cost.
func (c *Controller) Baseline(pc int) (ticks int64, energyNJ float64, ok bool) {
	a, found := c.arms[pc]
	if !found || !a.HasBaseline {
		return 0, 0, false
	}
	return a.BaselineTicks, a.BaselineEnergyNJ, true
}

// RecordTakeover folds one committed takeover's measured outcome into
// pc's ledger. tickGain and energyGain are estimated-scalar-cost minus
// measured-takeover-cost (positive = the DSA saved time/energy). It
// reports whether the outcome was a win and whether the arm just
// transitioned into suspension.
func (c *Controller) RecordTakeover(pc int, tickGain int64, energyGainNJ float64) (win, suspended bool) {
	a := c.arm(pc)
	a.TickGain += tickGain
	a.EnergyGainNJ += energyGainNJ
	if tickGain >= c.params.MinTickGain {
		c.recordWin(a)
		return true, false
	}
	return false, c.recordLoss(a)
}

// RecordLoss folds one non-takeover loss — a rejected analysis or a
// cache-hit entry that declined to take over — into pc's ledger. It
// reports whether the arm just transitioned into suspension.
func (c *Controller) RecordLoss(pc int) (suspended bool) {
	return c.recordLoss(c.arm(pc))
}

func (c *Controller) recordWin(a *Arm) {
	a.Wins++
	a.LossStreak = 0
	a.State = StateKeep
	a.TrialInterval = c.params.TrialEvery
	a.SinceTrial = 0
}

func (c *Controller) recordLoss(a *Arm) (suspended bool) {
	a.Losses++
	if a.State == StateTrial {
		// Failed trial: re-suspend with a doubled interval.
		a.State = StateSuspended
		a.SinceTrial = 0
		a.LossStreak = 0
		if a.TrialInterval < c.params.TrialBackoffMax {
			a.TrialInterval *= 2
			if a.TrialInterval > c.params.TrialBackoffMax {
				a.TrialInterval = c.params.TrialBackoffMax
			}
		}
		return true
	}
	if a.State == StateSuspended {
		return false
	}
	a.LossStreak++
	if a.LossStreak >= c.params.SuspendAfter {
		a.State = StateSuspended
		a.SinceTrial = 0
		a.TrialInterval = c.params.TrialEvery
		return true
	}
	return false
}

// Ledger aggregates the controller's cumulative measured savings.
type Ledger struct {
	TickGain     int64
	EnergyGainNJ float64
	Wins, Losses uint64
	Suspended    int // arms currently suspended or mid-trial
}

// Totals sums every arm's ledger.
func (c *Controller) Totals() Ledger {
	var l Ledger
	for _, a := range c.arms {
		l.TickGain += a.TickGain
		l.EnergyGainNJ += a.EnergyGainNJ
		l.Wins += a.Wins
		l.Losses += a.Losses
		if a.State != StateKeep {
			l.Suspended++
		}
	}
	return l
}

// --- snapshot codec ---

// Encode serializes the controller's arms (sorted by PC, so equal
// states produce identical bytes). Params are not included: the owning
// configuration fingerprints them.
func (c *Controller) Encode(e *snapshot.Enc) {
	pcs := make([]int, 0, len(c.arms))
	for pc := range c.arms {
		pcs = append(pcs, pc)
	}
	sort.Ints(pcs)
	e.U32(uint32(len(pcs)))
	for _, pc := range pcs {
		a := c.arms[pc]
		e.Int(pc)
		e.U8(uint8(a.State))
		e.Int(a.LossStreak)
		e.U64(a.Wins)
		e.U64(a.Losses)
		e.U64(a.Trials)
		e.Int(a.SinceTrial)
		e.Int(a.TrialInterval)
		e.I64(a.TickGain)
		e.U64(math.Float64bits(a.EnergyGainNJ))
		e.I64(a.BaselineTicks)
		e.U64(math.Float64bits(a.BaselineEnergyNJ))
		e.Bool(a.HasBaseline)
	}
}

// Decode rebuilds the controller's arms from a snapshot section.
func (c *Controller) Decode(d *snapshot.Dec) error {
	n := int(d.U32())
	if d.Err() != nil {
		return d.Err()
	}
	if n > 1<<20 {
		return fmt.Errorf("%w: %d policy arms claimed", snapshot.ErrCorrupt, n)
	}
	c.arms = make(map[int]*Arm, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		pc := d.Int()
		a := &Arm{
			State:      State(d.U8()),
			LossStreak: d.Int(),
			Wins:       d.U64(),
			Losses:     d.U64(),
			Trials:     d.U64(),
			SinceTrial: d.Int(),
		}
		a.TrialInterval = d.Int()
		a.TickGain = d.I64()
		a.EnergyGainNJ = math.Float64frombits(d.U64())
		a.BaselineTicks = d.I64()
		a.BaselineEnergyNJ = math.Float64frombits(d.U64())
		a.HasBaseline = d.Bool()
		if a.State > StateSuspended {
			return fmt.Errorf("%w: policy arm %d state %d", snapshot.ErrCorrupt, pc, a.State)
		}
		if _, dup := c.arms[pc]; dup {
			return fmt.Errorf("%w: duplicate policy arm %d", snapshot.ErrCorrupt, pc)
		}
		c.arms[pc] = a
	}
	return d.Err()
}
