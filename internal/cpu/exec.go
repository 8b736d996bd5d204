package cpu

import (
	"fmt"
	"math"

	"repro/internal/armlite"
	"repro/internal/neon"
)

// setNZ updates N and Z from a result.
func (m *Machine) setNZ(v uint32) {
	m.F.N = int32(v) < 0
	m.F.Z = v == 0
}

// subFlags sets full NZCV for a-b (the cmp/subs semantics).
func (m *Machine) subFlags(a, b uint32) {
	r := a - b
	m.setNZ(r)
	m.F.C = a >= b // no borrow
	m.F.V = (int32(a) >= 0) != (int32(b) >= 0) && (int32(r) >= 0) != (int32(a) >= 0)
}

// addFlags sets full NZCV for a+b (the cmn/adds semantics).
func (m *Machine) addFlags(a, b uint32) {
	r := a + b
	m.setNZ(r)
	m.F.C = r < a
	m.F.V = (int32(a) >= 0) == (int32(b) >= 0) && (int32(r) >= 0) != (int32(a) >= 0)
}

// op2p resolves the flexible second operand of a kind that keeps the
// imm/reg choice in flImm (long-latency and float ops).
func (m *Machine) op2p(u *pInstr) uint32 {
	if u.fl&flImm != 0 {
		return uint32(u.imm)
	}
	return m.R[u.rm]
}

// exec retires one predecoded instruction. The switch is over the
// dense pKind space, so it compiles to a single indirect jump; every
// case reads only the pInstr fields it needs and updates timing and
// class counters exactly as the pre-predecode interpreter did.
func (m *Machine) exec(u *pInstr, rec *Record) error {
	// Condition squash: a skipped instruction still occupies an issue
	// slot (it is fetched and squashed). flCond is only set on
	// conditional non-branch instructions, so the hot path pays one
	// bit test. pB evaluates its own condition.
	if u.fl&flCond != 0 && !u.cond.Holds(m.F) {
		m.Ticks += issueTicks
		m.Counts.Total++
		m.Counts.Nops++
		m.PC++
		return nil
	}

	switch u.kind {
	case pNop:
		m.Ticks += issueTicks
		m.Counts.Nops++

	case pHalt:
		m.Halted = true
		m.Ticks += issueTicks

	case pMovImm:
		m.R[u.rd] = uint32(u.imm)
		if u.fl&flSet != 0 {
			m.setNZ(uint32(u.imm))
		}
		m.Ticks += issueTicks
		m.Counts.ALU++

	case pMovReg:
		v := m.R[u.rm]
		m.R[u.rd] = v
		if u.fl&flSet != 0 {
			m.setNZ(v)
		}
		m.Ticks += issueTicks
		m.Counts.ALU++

	case pMvnImm:
		v := ^uint32(u.imm)
		m.R[u.rd] = v
		if u.fl&flSet != 0 {
			m.setNZ(v)
		}
		m.Ticks += issueTicks
		m.Counts.ALU++

	case pMvnReg:
		v := ^m.R[u.rm]
		m.R[u.rd] = v
		if u.fl&flSet != 0 {
			m.setNZ(v)
		}
		m.Ticks += issueTicks
		m.Counts.ALU++

	case pAddImm:
		a, b := m.R[u.rn], uint32(u.imm)
		m.R[u.rd] = a + b
		if u.fl&flSet != 0 {
			m.addFlags(a, b)
		}
		m.Ticks += issueTicks
		m.Counts.ALU++

	case pAddReg:
		a, b := m.R[u.rn], m.R[u.rm]
		m.R[u.rd] = a + b
		if u.fl&flSet != 0 {
			m.addFlags(a, b)
		}
		m.Ticks += issueTicks
		m.Counts.ALU++

	case pSubImm:
		a, b := m.R[u.rn], uint32(u.imm)
		m.R[u.rd] = a - b
		if u.fl&flSet != 0 {
			m.subFlags(a, b)
		}
		m.Ticks += issueTicks
		m.Counts.ALU++

	case pSubReg:
		a, b := m.R[u.rn], m.R[u.rm]
		m.R[u.rd] = a - b
		if u.fl&flSet != 0 {
			m.subFlags(a, b)
		}
		m.Ticks += issueTicks
		m.Counts.ALU++

	case pRsbImm:
		a, b := m.R[u.rn], uint32(u.imm)
		m.R[u.rd] = b - a
		if u.fl&flSet != 0 {
			m.subFlags(b, a)
		}
		m.Ticks += issueTicks
		m.Counts.ALU++

	case pRsbReg:
		a, b := m.R[u.rn], m.R[u.rm]
		m.R[u.rd] = b - a
		if u.fl&flSet != 0 {
			m.subFlags(b, a)
		}
		m.Ticks += issueTicks
		m.Counts.ALU++

	case pAndImm:
		r := m.R[u.rn] & uint32(u.imm)
		m.R[u.rd] = r
		if u.fl&flSet != 0 {
			m.setNZ(r)
		}
		m.Ticks += issueTicks
		m.Counts.ALU++

	case pAndReg:
		r := m.R[u.rn] & m.R[u.rm]
		m.R[u.rd] = r
		if u.fl&flSet != 0 {
			m.setNZ(r)
		}
		m.Ticks += issueTicks
		m.Counts.ALU++

	case pOrrImm:
		r := m.R[u.rn] | uint32(u.imm)
		m.R[u.rd] = r
		if u.fl&flSet != 0 {
			m.setNZ(r)
		}
		m.Ticks += issueTicks
		m.Counts.ALU++

	case pOrrReg:
		r := m.R[u.rn] | m.R[u.rm]
		m.R[u.rd] = r
		if u.fl&flSet != 0 {
			m.setNZ(r)
		}
		m.Ticks += issueTicks
		m.Counts.ALU++

	case pEorImm:
		r := m.R[u.rn] ^ uint32(u.imm)
		m.R[u.rd] = r
		if u.fl&flSet != 0 {
			m.setNZ(r)
		}
		m.Ticks += issueTicks
		m.Counts.ALU++

	case pEorReg:
		r := m.R[u.rn] ^ m.R[u.rm]
		m.R[u.rd] = r
		if u.fl&flSet != 0 {
			m.setNZ(r)
		}
		m.Ticks += issueTicks
		m.Counts.ALU++

	case pBicImm:
		r := m.R[u.rn] &^ uint32(u.imm)
		m.R[u.rd] = r
		if u.fl&flSet != 0 {
			m.setNZ(r)
		}
		m.Ticks += issueTicks
		m.Counts.ALU++

	case pBicReg:
		r := m.R[u.rn] &^ m.R[u.rm]
		m.R[u.rd] = r
		if u.fl&flSet != 0 {
			m.setNZ(r)
		}
		m.Ticks += issueTicks
		m.Counts.ALU++

	case pLslImm:
		r := m.R[u.rn] << (uint32(u.imm) & 31)
		m.R[u.rd] = r
		if u.fl&flSet != 0 {
			m.setNZ(r)
		}
		m.Ticks += issueTicks
		m.Counts.ALU++

	case pLslReg:
		r := m.R[u.rn] << (m.R[u.rm] & 31)
		m.R[u.rd] = r
		if u.fl&flSet != 0 {
			m.setNZ(r)
		}
		m.Ticks += issueTicks
		m.Counts.ALU++

	case pLsrImm:
		r := m.R[u.rn] >> (uint32(u.imm) & 31)
		m.R[u.rd] = r
		if u.fl&flSet != 0 {
			m.setNZ(r)
		}
		m.Ticks += issueTicks
		m.Counts.ALU++

	case pLsrReg:
		r := m.R[u.rn] >> (m.R[u.rm] & 31)
		m.R[u.rd] = r
		if u.fl&flSet != 0 {
			m.setNZ(r)
		}
		m.Ticks += issueTicks
		m.Counts.ALU++

	case pAsrImm:
		r := uint32(int32(m.R[u.rn]) >> (uint32(u.imm) & 31))
		m.R[u.rd] = r
		if u.fl&flSet != 0 {
			m.setNZ(r)
		}
		m.Ticks += issueTicks
		m.Counts.ALU++

	case pAsrReg:
		r := uint32(int32(m.R[u.rn]) >> (m.R[u.rm] & 31))
		m.R[u.rd] = r
		if u.fl&flSet != 0 {
			m.setNZ(r)
		}
		m.Ticks += issueTicks
		m.Counts.ALU++

	case pMul:
		r := m.R[u.rn] * m.op2p(u)
		m.R[u.rd] = r
		if u.fl&flSet != 0 {
			m.setNZ(r)
		}
		m.Ticks += mulTicks
		m.Counts.Mul++

	case pMla:
		m.R[u.rd] = m.R[u.rn]*m.R[u.rm] + m.R[u.ra]
		m.Ticks += mulTicks
		m.Counts.Mul++

	case pSdiv:
		d := int32(m.op2p(u))
		if d == 0 {
			m.R[u.rd] = 0
		} else {
			m.R[u.rd] = uint32(int32(m.R[u.rn]) / d)
		}
		m.Ticks += divTicks
		m.Counts.Div++

	case pUdiv:
		d := m.op2p(u)
		if d == 0 {
			m.R[u.rd] = 0
		} else {
			m.R[u.rd] = m.R[u.rn] / d
		}
		m.Ticks += divTicks
		m.Counts.Div++

	case pCmpImm:
		m.subFlags(m.R[u.rn], uint32(u.imm))
		m.Ticks += issueTicks
		m.Counts.ALU++

	case pCmpReg:
		m.subFlags(m.R[u.rn], m.R[u.rm])
		m.Ticks += issueTicks
		m.Counts.ALU++

	case pCmnImm:
		m.addFlags(m.R[u.rn], uint32(u.imm))
		m.Ticks += issueTicks
		m.Counts.ALU++

	case pCmnReg:
		m.addFlags(m.R[u.rn], m.R[u.rm])
		m.Ticks += issueTicks
		m.Counts.ALU++

	case pTstImm:
		m.setNZ(m.R[u.rn] & uint32(u.imm))
		m.Ticks += issueTicks
		m.Counts.ALU++

	case pTstReg:
		m.setNZ(m.R[u.rn] & m.R[u.rm])
		m.Ticks += issueTicks
		m.Counts.ALU++

	case pFAdd, pFSub, pFMul, pFDiv:
		a := math.Float32frombits(m.R[u.rn])
		b := math.Float32frombits(m.op2p(u))
		var r float32
		switch u.kind {
		case pFAdd:
			r = a + b
		case pFSub:
			r = a - b
		case pFMul:
			r = a * b
		case pFDiv:
			if b == 0 {
				r = float32(math.Inf(1))
				if a < 0 {
					r = float32(math.Inf(-1))
				} else if a == 0 {
					r = float32(math.NaN())
				}
			} else {
				r = a / b
			}
		}
		m.R[u.rd] = math.Float32bits(r)
		m.Ticks += fpTicks(u.op)
		m.Counts.FP++

	case pFCmp:
		a := math.Float32frombits(m.R[u.rn])
		b := math.Float32frombits(m.op2p(u))
		m.F.N = a < b
		m.F.Z = a == b
		m.F.C = a >= b
		m.F.V = a != a || b != b // unordered
		m.Ticks += fpTicks(u.op)
		m.Counts.FP++

	case pLdrOff:
		return m.load(u, rec, m.R[u.rn]+uint32(u.imm), noWriteback, 0)
	case pLdrPre:
		addr := m.R[u.rn] + uint32(u.imm)
		return m.load(u, rec, addr, u.rn, addr)
	case pLdrPost:
		addr := m.R[u.rn]
		return m.load(u, rec, addr, u.rn, addr+uint32(u.imm))
	case pLdrRegOff:
		return m.load(u, rec, m.R[u.rn]+(m.R[u.rm]<<u.reshift()), noWriteback, 0)

	case pStrOff:
		return m.store(u, rec, m.R[u.rn]+uint32(u.imm), noWriteback, 0)
	case pStrPre:
		addr := m.R[u.rn] + uint32(u.imm)
		return m.store(u, rec, addr, u.rn, addr)
	case pStrPost:
		addr := m.R[u.rn]
		return m.store(u, rec, addr, u.rn, addr+uint32(u.imm))
	case pStrRegOff:
		return m.store(u, rec, m.R[u.rn]+(m.R[u.rm]<<u.reshift()), noWriteback, 0)

	case pB:
		m.Counts.Branches++
		m.Counts.Total++
		if u.cond.Holds(m.F) {
			rec.Taken = true
			m.PC = int(u.target)
			m.Ticks += branchTakenTicks
		} else {
			m.PC++
			m.Ticks += issueTicks
		}
		return nil

	case pBL:
		m.R[armlite.LR] = uint32(m.PC + 1)
		rec.Taken = true
		m.PC = int(u.target)
		m.Ticks += branchTakenTicks
		m.Counts.Branches++
		m.Counts.Total++
		return nil

	case pBX:
		rec.Taken = true
		m.PC = int(m.R[u.rn])
		m.Ticks += branchTakenTicks
		m.Counts.Branches++
		m.Counts.Total++
		if m.PC < 0 || m.PC > len(m.Prog.Code) {
			return fmt.Errorf("%w: bx to %d", ErrInvalidPC, m.PC)
		}
		return nil

	case pVld1, pVst1, pVdup, pVALU:
		return m.execVector(u, rec)

	default:
		return fmt.Errorf("%w: %v", ErrUnimplemented, u.op)
	}

	m.Counts.Total++
	m.PC++
	return nil
}

// noWriteback marks a memory access with no base-register update.
const noWriteback = 0xFF

// load retires a scalar load: memory read, optional base writeback,
// cache timing, counters and the observation record.
func (m *Machine) load(u *pInstr, rec *Record, addr uint32, wbReg uint8, wbVal uint32) error {
	size := int(u.size)
	v, err := m.Mem.Load(addr, size)
	if err != nil {
		return err
	}
	m.R[u.rd] = v
	if wbReg != noWriteback {
		m.R[wbReg] = wbVal
	}
	m.Ticks += issueTicks + m.Caches.Access(addr, size)
	m.Counts.Loads++
	rec.addMem(addr, size, false)
	m.Counts.Total++
	m.PC++
	return nil
}

// store retires a scalar store.
func (m *Machine) store(u *pInstr, rec *Record, addr uint32, wbReg uint8, wbVal uint32) error {
	size := int(u.size)
	if err := m.Mem.Store(addr, size, m.R[u.rd]); err != nil {
		return err
	}
	if wbReg != noWriteback {
		m.R[wbReg] = wbVal
	}
	m.Ticks += issueTicks + m.Caches.AccessWrite(addr, size)
	m.Counts.Stores++
	rec.addMem(addr, size, true)
	m.Counts.Total++
	m.PC++
	return nil
}

// vecAddr resolves a vector memory operand's effective address and
// applies base writeback.
func (m *Machine) vecAddr(u *pInstr) uint32 {
	base := m.R[u.rn]
	switch u.am {
	case amAdv:
		m.R[u.rn] = base + armlite.VectorBytes
		return base
	case amPost:
		m.R[u.rn] = base + uint32(u.imm)
		return base
	case amRegOff:
		return base + (m.R[u.rm] << u.reshift())
	default:
		return base + uint32(u.imm)
	}
}

// execVector executes one NEON instruction on the vector unit.
func (m *Machine) execVector(u *pInstr, rec *Record) error {
	nu := m.NEON
	switch u.kind {
	case pVld1:
		addr := m.vecAddr(u)
		v, err := neon.LoadVec(m.Mem, addr)
		if err != nil {
			return err
		}
		nu.Q[u.qd] = v
		m.Ticks += neon.MemIssueTicks + m.Caches.Access(addr, armlite.VectorBytes)
		nu.Loads++
		m.Counts.VecLoads++
		rec.addMem(addr, armlite.VectorBytes, false)

	case pVst1:
		addr := m.vecAddr(u)
		if err := neon.StoreVec(m.Mem, addr, nu.Q[u.qd]); err != nil {
			return err
		}
		m.Ticks += neon.MemIssueTicks + m.Caches.AccessWrite(addr, armlite.VectorBytes)
		nu.Stores++
		m.Counts.VecStores++
		rec.addMem(addr, armlite.VectorBytes, true)

	case pVdup:
		nu.Q[u.qd] = neon.Splat(u.dt, m.R[u.rn])
		m.Ticks += neon.DupTicks
		m.Counts.VecDups++

	default:
		if !u.op.IsVector() {
			return fmt.Errorf("%w: %v", ErrUnimplemented, u.op)
		}
		// Not every vector form has all three register operands
		// (shifts have no Qm, vmov no Qn); absent slots read as zero.
		var qd, qn, qm neon.Vec
		if u.qd != uint8(armlite.NoVReg) {
			qd = nu.Q[u.qd]
		}
		if u.qn != uint8(armlite.NoVReg) {
			qn = nu.Q[u.qn]
		}
		if u.qm != uint8(armlite.NoVReg) {
			qm = nu.Q[u.qm]
		}
		out, err := neon.ALU(u.op, u.dt, qd, qn, qm, u.imm)
		if err != nil {
			return err
		}
		nu.Q[u.qd] = out
		m.Ticks += neon.OpIssueTicks
		nu.Ops++
		m.Counts.VecOps++
	}
	m.Counts.Total++
	m.PC++
	return nil
}

func (r *Record) addMem(addr uint32, size int, store bool) {
	if r.Nmem < len(r.Mem) {
		r.Mem[r.Nmem] = MemAccess{Addr: addr, Size: size, Store: store}
		r.Nmem++
	}
}
