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

// The cost of one simple operation at the configured superscalar
// width (1 cycle / width) is precomputed into Machine.issue at
// construction so the step loop never divides.

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
