package cpu

import (
	"testing"

	"repro/internal/asm"
)

func TestCheckpointRollbackRestoresMachine(t *testing.T) {
	prog := asm.MustParse("ckpt", `
        mov   r5, #0x1000
        mov   r0, #0
loop:   str   r0, [r5], #4
        add   r0, r0, #1
        cmp   r0, #8
        blt   loop
        halt
`)
	m := MustNew(prog, DefaultConfig())

	// Run two steps, checkpoint, run to completion, roll back.
	var rec Record
	for i := 0; i < 2; i++ {
		if err := m.Step(&rec); err != nil {
			t.Fatal(err)
		}
	}
	cp := m.Checkpoint()
	want := *cp
	for !m.Halted {
		if err := m.Step(&rec); err != nil {
			t.Fatal(err)
		}
	}
	if v, _ := m.Mem.Load(0x1000, 4); v != 0 {
		t.Fatalf("pre-rollback mem[0x1000] = %d, want 0", v)
	}
	m.Rollback(cp)

	if m.R != want.R || m.F != want.F || m.PC != want.PC || m.Halted != want.Halted {
		t.Errorf("architectural state not restored: pc=%d r0=%d", m.PC, m.R[0])
	}
	if m.Ticks != want.Ticks || m.Steps != want.Steps || m.Counts != want.Counts {
		t.Errorf("accounting not restored: ticks=%d steps=%d", m.Ticks, m.Steps)
	}
	for a := uint32(0x1000); a < 0x1020; a += 4 {
		if v, _ := m.Mem.Load(a, 4); v != 0 {
			t.Errorf("mem[%#x] = %d, want 0 after rollback", a, v)
		}
	}

	// The machine must re-execute to the same final state.
	if err := m.Run(nil); err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 8; i++ {
		if v, _ := m.Mem.Load(0x1000+4*i, 4); v != i {
			t.Errorf("mem word %d = %d, want %d", i, v, i)
		}
	}
}

func TestCheckpointReleaseKeepsState(t *testing.T) {
	prog := asm.MustParse("rel", `
        mov   r5, #0x1000
        mov   r0, #7
        str   r0, [r5]
        halt
`)
	m := MustNew(prog, DefaultConfig())
	cp := m.Checkpoint()
	if err := m.Run(nil); err != nil {
		t.Fatal(err)
	}
	m.Release(cp)
	if v, _ := m.Mem.Load(0x1000, 4); v != 7 {
		t.Errorf("mem = %d, want 7", v)
	}
	// A new checkpoint can open after release.
	m.Release(m.Checkpoint())
}
