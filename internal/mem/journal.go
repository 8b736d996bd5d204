package mem

import "sort"

// journalPageBytes is the copy-on-write granularity of the undo log.
// 256 bytes keeps the per-store bookkeeping to one map lookup while
// bounding the saved state to a few pages per takeover window.
const journalPageBytes = 256

// Journal is a copy-on-write undo log over a Memory: from BeginJournal
// until Commit or Rollback, the first store into each 256-byte page
// saves the page's prior contents, so the memory image at journal
// start can be restored exactly. The DSA's checkpoint layer uses one
// journal per speculative takeover.
type Journal struct {
	mem   *Memory
	pages map[uint32][]byte // page base address → saved contents

	// lastPage short-circuits record for the overwhelmingly common
	// case: consecutive stores landing in a page already saved.
	lastPage uint32
	lastOK   bool
}

// BeginJournal starts an undo journal. Only one journal can be active
// at a time; starting a second one panics (a nested speculative region
// is a programming error in the checkpoint layer).
func (m *Memory) BeginJournal() *Journal {
	if m.journal != nil {
		panic("mem: journal already active")
	}
	j := m.jFree
	if j != nil {
		m.jFree = nil
	} else {
		j = &Journal{mem: m, pages: make(map[uint32][]byte)}
	}
	m.journal = j
	return j
}

// record saves the pages overlapping [addr, addr+n) before they are
// overwritten. Called from Store/StoreBlock with bounds already
// checked.
func (j *Journal) record(addr uint32, n int) {
	first := addr &^ (journalPageBytes - 1)
	last := (addr + uint32(n) - 1) &^ (journalPageBytes - 1)
	if first == last && j.lastOK && first == j.lastPage {
		return
	}
	for p := first; ; p += journalPageBytes {
		if _, seen := j.pages[p]; !seen {
			end := int(p) + journalPageBytes
			if end > len(j.mem.data) {
				end = len(j.mem.data)
			}
			var old []byte
			if size := end - int(p); size == journalPageBytes {
				if k := len(j.mem.pageFree); k > 0 {
					old = j.mem.pageFree[k-1]
					j.mem.pageFree = j.mem.pageFree[:k-1]
				}
			}
			if old == nil {
				old = make([]byte, end-int(p))
			}
			copy(old, j.mem.data[p:end])
			j.pages[p] = old
		}
		if p == last {
			break
		}
	}
	j.lastPage, j.lastOK = last, true
}

// Rollback restores every journaled page to its saved contents and
// detaches the journal.
func (j *Journal) Rollback() {
	for p, old := range j.pages {
		copy(j.mem.data[p:int(p)+len(old)], old)
	}
	j.detach()
}

// Commit discards the undo log, keeping the current memory contents,
// and detaches the journal.
func (j *Journal) Commit() { j.detach() }

// maxPooledPages bounds how many page buffers the memory retains for
// reuse — enough for any realistic takeover window, small enough that
// a one-off huge journal does not pin its footprint forever.
const maxPooledPages = 256

func (j *Journal) detach() {
	if j.mem.journal == j {
		j.mem.journal = nil
	}
	// Recycle the journal and its full-size page buffers. SavedPage
	// views are only valid while the journal is attached (all callers
	// diff before Commit/Rollback), so reuse cannot alias live reads.
	for p, old := range j.pages {
		if len(old) == journalPageBytes && len(j.mem.pageFree) < maxPooledPages {
			j.mem.pageFree = append(j.mem.pageFree, old)
		}
		delete(j.pages, p)
	}
	j.lastOK = false
	if j.mem.jFree == nil {
		j.mem.jFree = j
	}
}

// Pages returns the base addresses of every journaled (written) page
// in ascending order — the takeover's touched-memory footprint.
func (j *Journal) Pages() []uint32 {
	out := make([]uint32, 0, len(j.pages))
	for p := range j.pages {
		out = append(out, p)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// SavedPage returns the pre-journal contents of the page at base (nil
// when the page was never written under this journal).
func (j *Journal) SavedPage(base uint32) []byte { return j.pages[base] }

// SnapshotPage returns a copy of the *current* contents of the page at
// base — used to capture a speculative outcome before rolling back,
// and by snapshot writers serializing the memory image.
//
// Copy semantics are part of the contract: the returned slice is
// freshly allocated and never aliases live memory, so later stores
// (including journal rollbacks) cannot mutate it after the fact. A
// snapshot writer that held an aliasing view here could persist a torn
// read — half pre-store, half post-store bytes.
func (m *Memory) SnapshotPage(base uint32) []byte {
	end := int(base) + journalPageBytes
	if end > len(m.data) {
		end = len(m.data)
	}
	out := make([]byte, end-int(base))
	copy(out, m.data[base:end])
	return out
}

// PageView returns the page at base as a read-only alias of live
// memory — no copy. Unlike SnapshotPage the view is invalidated by the
// next store; it exists for transient same-call comparisons (the
// verifier's page diff), never for retention.
func (m *Memory) PageView(base uint32) []byte {
	end := int(base) + journalPageBytes
	if end > len(m.data) {
		end = len(m.data)
	}
	return m.data[base:end]
}
