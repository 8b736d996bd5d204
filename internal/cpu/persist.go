package cpu

import (
	"fmt"
	"hash/fnv"

	"repro/internal/armlite"
	"repro/internal/neon"
	"repro/internal/snapshot"
)

// Snapshot section names owned by the cpu layer. The dsa layer adds
// its own "dsa.*" sections on top of these.
const (
	secMeta   = "meta"
	secCPU    = "cpu"
	secNEON   = "neon"
	secMem    = "mem"
	secCaches = "caches"
)

// ProgramFingerprint hashes the program text; a snapshot restores only
// into a machine running the identical program (register and PC state
// is meaningless otherwise).
func ProgramFingerprint(p *armlite.Program) uint64 {
	h := fnv.New64a()
	fmt.Fprint(h, p.String())
	return h.Sum64()
}

// SaveState appends the machine's full execution state to w as the
// meta/cpu/neon/mem/caches sections. The machine must be between
// steps with no speculative journal open.
func (m *Machine) SaveState(w *snapshot.Writer) {
	var meta snapshot.Enc
	meta.U64(ProgramFingerprint(m.Prog))
	meta.U64(m.cfg.MaxSteps)
	w.Add(secMeta, meta.Bytes())

	var e snapshot.Enc
	for _, r := range m.R {
		e.U32(r)
	}
	e.Bool(m.F.N)
	e.Bool(m.F.Z)
	e.Bool(m.F.C)
	e.Bool(m.F.V)
	e.Int(m.PC)
	e.Bool(m.Halted)
	e.I64(m.Ticks)
	e.U64(m.Steps)
	encodeCounts(&e, &m.Counts)
	e.U64(m.cancelLeft)
	w.Add(secCPU, e.Bytes())

	var n snapshot.Enc
	for i := range m.NEON.Q {
		n.Raw(m.NEON.Q[i][:])
	}
	n.U64(m.NEON.Ops)
	n.U64(m.NEON.Loads)
	n.U64(m.NEON.Stores)
	w.Add(secNEON, n.Bytes())

	var mm snapshot.Enc
	m.Mem.SaveState(&mm)
	w.Add(secMem, mm.Bytes())

	var cc snapshot.Enc
	m.Caches.SaveState(&cc)
	w.Add(secCaches, cc.Bytes())
}

// RestoreState rebuilds the machine's execution state from r. The
// snapshot must have been taken from a machine running the same
// program under the same configuration (ErrMismatch otherwise); any
// structural damage surfaces as ErrCorrupt. Install the host tap
// (SetCancelCheck) before calling RestoreState so the restored
// countdown is not clobbered by SetCancelCheck's reset.
func (m *Machine) RestoreState(r *snapshot.Reader) error {
	meta, err := section(r, secMeta)
	if err != nil {
		return err
	}
	if fp := meta.U64(); fp != ProgramFingerprint(m.Prog) {
		return fmt.Errorf("%w: snapshot of a different program (fingerprint %#x)", snapshot.ErrMismatch, fp)
	}
	if ms := meta.U64(); ms != m.cfg.MaxSteps {
		return fmt.Errorf("%w: snapshot under max-steps %d, machine has %d", snapshot.ErrMismatch, ms, m.cfg.MaxSteps)
	}
	if err := meta.Done(); err != nil {
		return err
	}

	c, err := section(r, secCPU)
	if err != nil {
		return err
	}
	for i := range m.R {
		m.R[i] = c.U32()
	}
	m.F.N = c.Bool()
	m.F.Z = c.Bool()
	m.F.C = c.Bool()
	m.F.V = c.Bool()
	m.PC = c.Int()
	m.Halted = c.Bool()
	m.Ticks = c.I64()
	m.Steps = c.U64()
	decodeCounts(c, &m.Counts)
	if left := c.U64(); left != 0 {
		// Restore the cancel countdown only when the saving machine had
		// one armed: writing 0 into a hooked machine would wrap the
		// decrement-then-compare countdown on the next step.
		m.cancelLeft = left
	}
	if err := c.Done(); err != nil {
		return err
	}
	if m.PC < 0 || m.PC > len(m.pcode) {
		return fmt.Errorf("%w: restored pc %d outside program (%d instructions)", snapshot.ErrCorrupt, m.PC, len(m.pcode))
	}

	n, err := section(r, secNEON)
	if err != nil {
		return err
	}
	for i := range m.NEON.Q {
		var q neon.Vec
		copy(q[:], n.Raw(len(q)))
		m.NEON.Q[i] = q
	}
	m.NEON.Ops = n.U64()
	m.NEON.Loads = n.U64()
	m.NEON.Stores = n.U64()
	if err := n.Done(); err != nil {
		return err
	}

	mm, err := section(r, secMem)
	if err != nil {
		return err
	}
	if err := m.Mem.RestoreState(mm); err != nil {
		return err
	}
	if err := mm.Done(); err != nil {
		return err
	}

	cc, err := section(r, secCaches)
	if err != nil {
		return err
	}
	if err := m.Caches.RestoreState(cc); err != nil {
		return err
	}
	return cc.Done()
}

func section(r *snapshot.Reader, name string) (*snapshot.Dec, error) {
	p, err := r.Section(name)
	if err != nil {
		return nil, err
	}
	return snapshot.NewDec(p), nil
}

func encodeCounts(e *snapshot.Enc, c *Counts) {
	e.U64(c.Total)
	e.U64(c.ALU)
	e.U64(c.Mul)
	e.U64(c.Div)
	e.U64(c.FP)
	e.U64(c.Loads)
	e.U64(c.Stores)
	e.U64(c.Branches)
	e.U64(c.Nops)
	e.U64(c.VecOps)
	e.U64(c.VecLoads)
	e.U64(c.VecStores)
	e.U64(c.VecDups)
}

func decodeCounts(d *snapshot.Dec, c *Counts) {
	c.Total = d.U64()
	c.ALU = d.U64()
	c.Mul = d.U64()
	c.Div = d.U64()
	c.FP = d.U64()
	c.Loads = d.U64()
	c.Stores = d.U64()
	c.Branches = d.U64()
	c.Nops = d.U64()
	c.VecOps = d.U64()
	c.VecLoads = d.U64()
	c.VecStores = d.U64()
	c.VecDups = d.U64()
}
