package mem

// Cache timing model: two-level, set-associative, LRU replacement —
// "L1 64 kb / L2 512 kb / Cache Policy LRU" per the dissertation's
// systems setup (Table 4). The model tracks tags only; data always
// lives in Memory. Access returns a latency in ticks which the CPU
// and NEON timing models add to the instruction cost.

// CacheConfig describes one cache level.
type CacheConfig struct {
	SizeBytes int
	LineBytes int
	Ways      int
	HitTicks  int64 // latency charged on a hit at this level
}

// HierarchyConfig describes the full data-memory hierarchy.
type HierarchyConfig struct {
	L1, L2   CacheConfig
	MemTicks int64 // main-memory latency on L2 miss
}

// DefaultHierarchy reproduces the paper's setup with latencies in
// tick units (10 ticks = 1 CPU cycle at 1 GHz; see cpu.TicksPerCycle).
// Every machine runs it; other shapes serve the cache model's own
// tests.
func DefaultHierarchy() HierarchyConfig {
	return HierarchyConfig{
		L1:       CacheConfig{SizeBytes: 64 << 10, LineBytes: 64, Ways: 4, HitTicks: 10},  // 1 cycle
		L2:       CacheConfig{SizeBytes: 512 << 10, LineBytes: 64, Ways: 8, HitTicks: 80}, // 8 cycles
		MemTicks: 600,                                                                     // 60 cycles
	}
}

type cacheSet struct {
	tags []uint32 // MRU first
}

type cacheLevel struct {
	cfg      CacheConfig
	sets     []cacheSet
	setShift uint
	setMask  uint32
	hits     uint64
	misses   uint64
}

func newCacheLevel(cfg CacheConfig) *cacheLevel {
	nLines := cfg.SizeBytes / cfg.LineBytes
	nSets := nLines / cfg.Ways
	if nSets < 1 {
		nSets = 1
	}
	shift := uint(0)
	for (1 << shift) < cfg.LineBytes {
		shift++
	}
	c := &cacheLevel{cfg: cfg, sets: make([]cacheSet, nSets), setShift: shift, setMask: uint32(nSets - 1)}
	for i := range c.sets {
		c.sets[i].tags = make([]uint32, 0, cfg.Ways)
	}
	return c
}

// access touches the line containing addr; it returns true on hit and
// updates LRU order, inserting on miss. The first-way check is split
// out because repeated references to the same line (a word-stream
// walking a 64-byte line) hit the MRU slot almost every time, where
// the reorder is a no-op.
func (c *cacheLevel) access(addr uint32) bool {
	line := addr >> c.setShift
	set := &c.sets[line&c.setMask]
	if tags := set.tags; len(tags) > 0 && tags[0] == line {
		c.hits++
		return true
	}
	for i, t := range set.tags {
		if t == line {
			// Move to MRU position.
			copy(set.tags[1:i+1], set.tags[:i])
			set.tags[0] = line
			c.hits++
			return true
		}
	}
	c.misses++
	if len(set.tags) < c.cfg.Ways {
		set.tags = append(set.tags, 0)
	}
	copy(set.tags[1:], set.tags)
	set.tags[0] = line
	return false
}

// Stats holds hit/miss counters for one cache level.
type Stats struct {
	Hits, Misses uint64
}

// Hierarchy is the two-level cache timing model.
type Hierarchy struct {
	cfg HierarchyConfig
	l1  *cacheLevel
	l2  *cacheLevel
	// Accesses counts every data-memory reference fed to the model.
	Accesses uint64
}

// NewHierarchy builds the model from cfg.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	return &Hierarchy{cfg: cfg, l1: newCacheLevel(cfg.L1), l2: newCacheLevel(cfg.L2)}
}

// Access charges one load of width bytes at addr and returns its
// latency in ticks. References that straddle a line boundary charge
// both lines (relevant for 16-byte vector accesses).
func (h *Hierarchy) Access(addr uint32, width int) int64 {
	h.Accesses++
	first := addr >> h.l1.setShift
	last := (addr + uint32(width) - 1) >> h.l1.setShift
	if first == last {
		// Fast path: the access fits in one line — every scalar word
		// access and all aligned vector accesses land here.
		return h.accessLine(first << h.l1.setShift)
	}
	var ticks int64
	for line := first; ; line++ {
		ticks += h.accessLine(line << h.l1.setShift)
		if line == last {
			break
		}
	}
	return ticks
}

// AccessWrite charges one store. Stores retire through the write
// buffer, so the pipeline only pays the L1 port latency; the tags are
// still updated (write-allocate) so subsequent loads hit.
func (h *Hierarchy) AccessWrite(addr uint32, width int) int64 {
	h.Accesses++
	first := addr >> h.l1.setShift
	last := (addr + uint32(width) - 1) >> h.l1.setShift
	if first == last {
		h.accessLine(first << h.l1.setShift)
		return h.cfg.L1.HitTicks
	}
	var ticks int64
	for line := first; ; line++ {
		h.accessLine(line << h.l1.setShift)
		ticks += h.cfg.L1.HitTicks
		if line == last {
			break
		}
	}
	return ticks
}

func (h *Hierarchy) accessLine(addr uint32) int64 {
	if h.l1.access(addr) {
		return h.cfg.L1.HitTicks
	}
	if h.l2.access(addr) {
		return h.cfg.L1.HitTicks + h.cfg.L2.HitTicks
	}
	return h.cfg.L1.HitTicks + h.cfg.L2.HitTicks + h.cfg.MemTicks
}

// L1Stats returns L1 hit/miss counters.
func (h *Hierarchy) L1Stats() Stats { return Stats{h.l1.hits, h.l1.misses} }

// L2Stats returns L2 hit/miss counters.
func (h *Hierarchy) L2Stats() Stats { return Stats{h.l2.hits, h.l2.misses} }

// Reset clears all cache state and counters.
func (h *Hierarchy) Reset() {
	h.l1 = newCacheLevel(h.cfg.L1)
	h.l2 = newCacheLevel(h.cfg.L2)
	h.Accesses = 0
}
