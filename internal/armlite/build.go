package armlite

// Constructors for building instructions programmatically. The DSA's
// run-time SIMD generator and the static auto-vectorizer both emit code
// through these, and tests use them to avoid round-tripping through the
// assembler.

// MovImm builds `mov rd, #imm`.
func MovImm(rd Reg, imm int32) Instr {
	in := NewInstr(OpMov)
	in.Rd, in.Imm, in.HasImm = rd, imm, true
	return in
}

// ALUReg builds a three-register data-processing instruction.
func ALUReg(op Op, rd, rn, rm Reg) Instr {
	in := NewInstr(op)
	in.Rd, in.Rn, in.Rm = rd, rn, rm
	return in
}

// ALUImm builds a register-immediate data-processing instruction.
func ALUImm(op Op, rd, rn Reg, imm int32) Instr {
	in := NewInstr(op)
	in.Rd, in.Rn, in.Imm, in.HasImm = rd, rn, imm, true
	return in
}

// CmpImm builds `cmp rn, #imm`.
func CmpImm(rn Reg, imm int32) Instr {
	in := NewInstr(OpCmp)
	in.Rn, in.Imm, in.HasImm = rn, imm, true
	return in
}

// CmpReg builds `cmp rn, rm`.
func CmpReg(rn, rm Reg) Instr {
	in := NewInstr(OpCmp)
	in.Rn, in.Rm = rn, rm
	return in
}

// LoadPost builds `ldr<dt> rd, [base], #inc` (post-indexed, writeback).
func LoadPost(dt DataType, rd, base Reg, inc int32) Instr {
	in := NewInstr(OpLdr)
	in.DT = dt
	in.Rd = rd
	in.Mem = Mem{Base: base, Index: NoReg, Offset: inc, Kind: AddrPostIndex, Writeback: true}
	return in
}

// StorePost builds `str<dt> rd, [base], #inc` (post-indexed, writeback).
func StorePost(dt DataType, rd, base Reg, inc int32) Instr {
	in := NewInstr(OpStr)
	in.DT = dt
	in.Rd = rd
	in.Mem = Mem{Base: base, Index: NoReg, Offset: inc, Kind: AddrPostIndex, Writeback: true}
	return in
}

// LoadOfs builds `ldr<dt> rd, [base, #ofs]`.
func LoadOfs(dt DataType, rd, base Reg, ofs int32) Instr {
	in := NewInstr(OpLdr)
	in.DT = dt
	in.Rd = rd
	in.Mem = Mem{Base: base, Index: NoReg, Offset: ofs, Kind: AddrOffset}
	return in
}

// StoreOfs builds `str<dt> rd, [base, #ofs]`.
func StoreOfs(dt DataType, rd, base Reg, ofs int32) Instr {
	in := NewInstr(OpStr)
	in.DT = dt
	in.Rd = rd
	in.Mem = Mem{Base: base, Index: NoReg, Offset: ofs, Kind: AddrOffset}
	return in
}

// Branch builds a conditional branch to an instruction index.
func Branch(cond Cond, target int) Instr {
	in := NewInstr(OpB)
	in.Cond = cond
	in.Target = target
	return in
}

// BranchLabel builds a conditional branch to a label (resolved later).
func BranchLabel(cond Cond, label string) Instr {
	in := NewInstr(OpB)
	in.Cond = cond
	in.Label = label
	in.Target = -1
	return in
}

// Halt builds the machine-stop instruction.
func Halt() Instr { return NewInstr(OpHalt) }

// Nop builds a no-op.
func Nop() Instr { return NewInstr(OpNop) }

// VLoad builds `vld1.<dt> qd, [base]` with optional writeback (+16).
func VLoad(dt DataType, qd VReg, base Reg, writeback bool) Instr {
	in := NewInstr(OpVld1)
	in.DT = dt.Vector()
	in.Qd = qd
	in.Mem = Mem{Base: base, Index: NoReg, Kind: AddrOffset, Writeback: writeback}
	return in
}

// VStore builds `vst1.<dt> qd, [base]` with optional writeback (+16).
func VStore(dt DataType, qd VReg, base Reg, writeback bool) Instr {
	in := NewInstr(OpVst1)
	in.DT = dt.Vector()
	in.Qd = qd
	in.Mem = Mem{Base: base, Index: NoReg, Kind: AddrOffset, Writeback: writeback}
	return in
}

// VALU builds a three-operand vector instruction, e.g. `vadd.i32`.
func VALU(op Op, dt DataType, qd, qn, qm VReg) Instr {
	in := NewInstr(op)
	in.DT = dt.Vector()
	in.Qd, in.Qn, in.Qm = qd, qn, qm
	return in
}

// VShiftImm builds `vshl/vshr.<dt> qd, qn, #imm`.
func VShiftImm(op Op, dt DataType, qd, qn VReg, imm int32) Instr {
	in := NewInstr(op)
	in.DT = dt.Vector()
	in.Qd, in.Qn = qd, qn
	in.Imm, in.HasImm = imm, true
	return in
}

// VDup builds `vdup.<dt> qd, rn`.
func VDup(dt DataType, qd VReg, rn Reg) Instr {
	in := NewInstr(OpVdup)
	in.DT = dt.Vector()
	in.Qd, in.Rn = qd, rn
	return in
}
