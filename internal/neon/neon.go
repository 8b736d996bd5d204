// Package neon models the ARM NEON 128-bit SIMD engine of the
// dissertation: a sixteen-entry quadword register file (Q0–Q15),
// lane-typed arithmetic for every parallelism degree of Fig. 4
// (16×8-bit, 8×16-bit, 4×32-bit int, 4×float32), vector loads and
// stores against the shared memory, and the engine's own pipeline
// timing (10-stage pipeline fed through a 16-entry instruction queue,
// per the A8/NEON schematic in Fig. 3).
package neon

import (
	"fmt"
	"math"

	"repro/internal/armlite"
	"repro/internal/mem"
)

// Vec is one 128-bit vector register value.
type Vec [armlite.VectorBytes]byte

// LaneU returns lane i interpreted per dt, zero-extended to uint32.
func (v Vec) LaneU(dt armlite.DataType, i int) uint32 {
	switch dt.Size() {
	case 1:
		return uint32(v[i])
	case 2:
		return uint32(v[2*i]) | uint32(v[2*i+1])<<8
	default:
		return uint32(v[4*i]) | uint32(v[4*i+1])<<8 | uint32(v[4*i+2])<<16 | uint32(v[4*i+3])<<24
	}
}

// LaneS returns lane i sign-extended to int32.
func (v Vec) LaneS(dt armlite.DataType, i int) int32 {
	u := v.LaneU(dt, i)
	switch dt.Size() {
	case 1:
		return int32(int8(u))
	case 2:
		return int32(int16(u))
	default:
		return int32(u)
	}
}

// SetLane writes the low bytes of val into lane i per dt.
func (v *Vec) SetLane(dt armlite.DataType, i int, val uint32) {
	switch dt.Size() {
	case 1:
		v[i] = byte(val)
	case 2:
		v[2*i] = byte(val)
		v[2*i+1] = byte(val >> 8)
	default:
		v[4*i] = byte(val)
		v[4*i+1] = byte(val >> 8)
		v[4*i+2] = byte(val >> 16)
		v[4*i+3] = byte(val >> 24)
	}
}

// LaneF returns lane i as a float32 (dt must be 4-byte).
func (v Vec) LaneF(i int) float32 { return math.Float32frombits(v.LaneU(armlite.I32, i)) }

// SetLaneF writes a float32 into lane i.
func (v *Vec) SetLaneF(i int, f float32) { v.SetLane(armlite.I32, i, math.Float32bits(f)) }

// String formats the vector as 4 words for debugging.
func (v Vec) String() string {
	return fmt.Sprintf("{%#08x %#08x %#08x %#08x}",
		v.LaneU(armlite.I32, 0), v.LaneU(armlite.I32, 1),
		v.LaneU(armlite.I32, 2), v.LaneU(armlite.I32, 3))
}

// Unit is the NEON engine: register file plus event counters the
// energy model consumes.
type Unit struct {
	Q [armlite.NumVRegs]Vec

	// Event counters.
	Ops    uint64 // arithmetic/logic vector operations executed
	Loads  uint64 // vector loads
	Stores uint64 // vector stores
}

// New returns a zeroed NEON unit.
func New() *Unit { return &Unit{} }

// Splat returns a vector with every dt-lane set to val.
func Splat(dt armlite.DataType, val uint32) Vec {
	var v Vec
	for i := 0; i < dt.Lanes(); i++ {
		v.SetLane(dt, i, val)
	}
	return v
}

// ALU computes a lane-wise operation. qd is the previous destination
// value (needed by vbsl, which blends through the destination mask).
func ALU(op armlite.Op, dt armlite.DataType, qd, qn, qm Vec, imm int32) (Vec, error) {
	var out Vec
	dt = dt.Vector()
	lanes := dt.Lanes()
	switch op {
	case armlite.OpVmov:
		return qm, nil
	case armlite.OpVbsl:
		for i := range out {
			out[i] = (qd[i] & qn[i]) | (^qd[i] & qm[i])
		}
		return out, nil
	}
	if dt == armlite.VF32 {
		for i := 0; i < lanes; i++ {
			a, b := math.Float32frombits(qn.LaneU(armlite.I32, i)), math.Float32frombits(qm.LaneU(armlite.I32, i))
			var r float32
			switch op {
			case armlite.OpVadd:
				r = a + b
			case armlite.OpVsub:
				r = a - b
			case armlite.OpVmul:
				r = a * b
			case armlite.OpVmin:
				r = min32f(a, b)
			case armlite.OpVmax:
				r = max32f(a, b)
			case armlite.OpVceq:
				out.SetLane(armlite.I32, i, maskBool(a == b))
				continue
			case armlite.OpVcgt:
				out.SetLane(armlite.I32, i, maskBool(a > b))
				continue
			default:
				return out, fmt.Errorf("neon: op %v not defined for f32", op)
			}
			out.SetLaneF(i, r)
		}
		return out, nil
	}
	for i := 0; i < lanes; i++ {
		a, b := qn.LaneS(dt, i), qm.LaneS(dt, i)
		var r int32
		switch op {
		case armlite.OpVadd:
			r = a + b
		case armlite.OpVsub:
			r = a - b
		case armlite.OpVmul:
			r = a * b
		case armlite.OpVand:
			r = a & b
		case armlite.OpVorr:
			r = a | b
		case armlite.OpVeor:
			r = a ^ b
		case armlite.OpVmin:
			if a < b {
				r = a
			} else {
				r = b
			}
		case armlite.OpVmax:
			if a > b {
				r = a
			} else {
				r = b
			}
		case armlite.OpVshl:
			r = a << (uint32(imm) & 31)
		case armlite.OpVshr:
			r = a >> (uint32(imm) & 31)
		case armlite.OpVceq:
			r = int32(maskBool(a == b))
		case armlite.OpVcgt:
			r = int32(maskBool(a > b))
		default:
			return out, fmt.Errorf("neon: unknown vector ALU op %v", op)
		}
		out.SetLane(dt, i, uint32(r))
	}
	return out, nil
}

func maskBool(b bool) uint32 {
	if b {
		return 0xFFFFFFFF
	}
	return 0
}

func min32f(a, b float32) float32 {
	if a < b {
		return a
	}
	return b
}

func max32f(a, b float32) float32 {
	if a > b {
		return a
	}
	return b
}

// LoadVec reads 16 bytes at addr from memory into a Vec.
func LoadVec(m *mem.Memory, addr uint32) (Vec, error) {
	var v Vec
	b, err := m.LoadBlock(addr, armlite.VectorBytes)
	if err != nil {
		return v, err
	}
	copy(v[:], b)
	return v, nil
}

// StoreVec writes v's 16 bytes to memory at addr.
func StoreVec(m *mem.Memory, addr uint32, v Vec) error {
	return m.StoreBlock(addr, v[:])
}
