package mem

import (
	"fmt"

	"repro/internal/snapshot"
)

// snapPageBytes is the granularity of the durable memory image: the
// snapshot stores only pages with non-zero content, so a 16 MiB
// machine whose workload touches a few hundred KiB serializes to a few
// hundred KiB. Distinct from journalPageBytes (the speculative undo
// granularity) on purpose — durable snapshots want fewer, larger
// extents.
const snapPageBytes = 4096

// SaveState encodes the memory as its size plus every non-zero
// 4 KiB page. The caller must not snapshot while a journal is active:
// serializing memory mid-journal would capture half-applied
// speculative stores, so doing so panics, matching BeginJournal's
// contract that the checkpoint layer sequences these.
func (m *Memory) SaveState(e *snapshot.Enc) {
	if m.journal != nil {
		panic("mem: SaveState during active journal")
	}
	e.Int(len(m.data))
	e.U32(snapPageBytes)
	nonZero := 0
	for base := 0; base < len(m.data); base += snapPageBytes {
		if !zeroPage(m.data[base:min(base+snapPageBytes, len(m.data))]) {
			nonZero++
		}
	}
	e.U32(uint32(nonZero))
	for base := 0; base < len(m.data); base += snapPageBytes {
		page := m.data[base:min(base+snapPageBytes, len(m.data))]
		if zeroPage(page) {
			continue
		}
		e.U32(uint32(base))
		e.Raw(page)
	}
}

// RestoreState rebuilds the memory image from d. The encoded size must
// match the live memory's size; pages outside the encoded set are
// zeroed, so restore is exact regardless of the memory's prior
// contents.
func (m *Memory) RestoreState(d *snapshot.Dec) error {
	if m.journal != nil {
		panic("mem: RestoreState during active journal")
	}
	size := d.Int()
	pageBytes := d.U32()
	if err := d.Err(); err != nil {
		return err
	}
	if size != len(m.data) {
		return fmt.Errorf("%w: snapshot memory size %d, machine has %d", snapshot.ErrMismatch, size, len(m.data))
	}
	if pageBytes != snapPageBytes {
		return fmt.Errorf("%w: snapshot page size %d, want %d", snapshot.ErrCorrupt, pageBytes, snapPageBytes)
	}
	clear(m.data)
	n := d.U32()
	for i := uint32(0); i < n; i++ {
		base := int(d.U32())
		if base%snapPageBytes != 0 || base >= len(m.data) {
			return fmt.Errorf("%w: memory page base %#x", snapshot.ErrCorrupt, base)
		}
		page := d.Raw(min(snapPageBytes, len(m.data)-base))
		if page == nil {
			return d.Err()
		}
		copy(m.data[base:], page)
	}
	return nil
}

func zeroPage(p []byte) bool {
	for _, b := range p {
		if b != 0 {
			return false
		}
	}
	return true
}

// SaveState encodes the hierarchy's tag arrays and counters. Ticks
// charged per access depend on the LRU state, so a resumed run only
// reproduces the uninterrupted run's tick count if the cache model is
// restored exactly.
func (h *Hierarchy) SaveState(e *snapshot.Enc) {
	e.U64(h.Accesses)
	h.l1.save(e)
	h.l2.save(e)
}

// RestoreState rebuilds the cache model from d. The snapshot's
// geometry (set count, ways) must match the live configuration; a
// mismatch means the snapshot was taken under a different hierarchy
// config and is rejected with ErrMismatch.
func (h *Hierarchy) RestoreState(d *snapshot.Dec) error {
	h.Accesses = d.U64()
	if err := h.l1.restore(d); err != nil {
		return fmt.Errorf("L1: %w", err)
	}
	if err := h.l2.restore(d); err != nil {
		return fmt.Errorf("L2: %w", err)
	}
	return nil
}

func (c *cacheLevel) save(e *snapshot.Enc) {
	e.U64(c.hits)
	e.U64(c.misses)
	e.U32(uint32(len(c.sets)))
	e.U32(uint32(c.cfg.Ways))
	for i := range c.sets {
		tags := c.sets[i].tags
		e.U8(uint8(len(tags)))
		for _, t := range tags {
			e.U32(t)
		}
	}
}

func (c *cacheLevel) restore(d *snapshot.Dec) error {
	hits := d.U64()
	misses := d.U64()
	nSets := int(d.U32())
	ways := int(d.U32())
	if err := d.Err(); err != nil {
		return err
	}
	if nSets != len(c.sets) || ways != c.cfg.Ways {
		return fmt.Errorf("%w: cache geometry %d sets × %d ways, machine has %d × %d",
			snapshot.ErrMismatch, nSets, ways, len(c.sets), c.cfg.Ways)
	}
	c.hits, c.misses = hits, misses
	for i := range c.sets {
		n := int(d.U8())
		if n > c.cfg.Ways {
			return fmt.Errorf("%w: set %d holds %d tags, max %d", snapshot.ErrCorrupt, i, n, c.cfg.Ways)
		}
		tags := c.sets[i].tags[:0]
		for j := 0; j < n; j++ {
			tags = append(tags, d.U32())
		}
		c.sets[i].tags = tags
	}
	return d.Err()
}
