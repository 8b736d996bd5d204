package cpu

import "repro/internal/armlite"

// Scalar pipeline cost constants in ticks (10 ticks = 1 cycle).
// They approximate the Cortex-A-class O3CPU the dissertation models:
// simple operations sustain the full issue width, multiplies and
// divides occupy the long-latency units, and taken branches cost a
// front-end redirect.
const (
	mulTicks         = 20  // 2 cycles
	divTicks         = 120 // 12 cycles
	fpAddTicks       = 20  // 2 cycles in the VFP unit
	fpMulTicks       = 30
	fpDivTicks       = 150
	branchTakenTicks = 20 // 2 cycles: redirect bubble (predictor-amortized)
)

// IssueWidth is the superscalar issue width, the dissertation's
// "Superscalar Width: 2 wide".
const IssueWidth = 2

// issueTicks is the cost of one simple operation: one cycle divided
// by the issue width.
const issueTicks = TicksPerCycle / IssueWidth

func fpTicks(op armlite.Op) int64 {
	switch op {
	case armlite.OpFMul:
		return fpMulTicks
	case armlite.OpFDiv:
		return fpDivTicks
	default:
		return fpAddTicks
	}
}
