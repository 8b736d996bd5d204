package dsa

import (
	"fmt"

	"repro/internal/armlite"
)

// MemPattern is the per-memory-instruction access pattern the Data
// Collection stage derives: the addresses observed in two reference
// iterations and the per-iteration stride between them.
type MemPattern struct {
	PC      int // instruction address of the load/store
	Store   bool
	DT      armlite.DataType
	Size    int         // access width in bytes
	BaseReg armlite.Reg // base register of the source instruction (for listings)
	Mem     armlite.Mem // full memory operand (for cache-hit rebasing)
	// MultiOcc marks sites executed more than once per iteration
	// (e.g. a function called twice); such streams cannot be rebased
	// from the register file on a DSA-cache hit.
	MultiOcc bool

	RefIterA int    // iteration number of the first observation
	RefIterB int    // iteration number of the second observation
	AddrA    uint32 // address at RefIterA
	AddrB    uint32 // address at RefIterB
	Stride   int64  // per-iteration stride: (AddrB-AddrA)/(RefIterB-RefIterA)
}

// NewMemPattern derives the stride from two observations. It reports
// an error when the address delta does not divide evenly across the
// iteration gap (a non-linear access — not vectorizable).
func NewMemPattern(pc int, store bool, dt armlite.DataType, size int,
	iterA, iterB int, addrA, addrB uint32) (MemPattern, error) {
	p := MemPattern{PC: pc, Store: store, DT: dt, Size: size,
		RefIterA: iterA, RefIterB: iterB, AddrA: addrA, AddrB: addrB}
	gap := iterB - iterA
	if gap <= 0 {
		return p, fmt.Errorf("dsa: bad iteration gap %d..%d", iterA, iterB)
	}
	delta := int64(addrB) - int64(addrA)
	if delta%int64(gap) != 0 {
		return p, fmt.Errorf("dsa: non-linear access at pc %d (%#x→%#x over %d iters)",
			pc, addrA, addrB, gap)
	}
	p.Stride = delta / int64(gap)
	return p, nil
}

// AddrAt predicts the access address at iteration i (Eq. 4.4
// generalized: MRead[i] = MRead[refA] + stride·(i−refA)). Pointer
// receiver: the struct is ~90 bytes and AddrAt sits on the executor's
// per-chunk path, so a value receiver would duffcopy it per call.
func (p *MemPattern) AddrAt(i int) uint32 {
	return uint32(int64(p.AddrA) + p.Stride*int64(i-p.RefIterA))
}

// Range returns the inclusive byte range the pattern touches over
// iterations [first, last].
func (p *MemPattern) Range(first, last int) (lo, hi uint32) {
	a, b := p.AddrAt(first), p.AddrAt(last)
	if a > b {
		a, b = b, a
	}
	return a, b + uint32(p.Size) - 1
}

// Overlaps reports whether two byte ranges intersect.
func rangesOverlap(lo1, hi1, lo2, hi2 uint32) bool {
	return lo1 <= hi2 && lo2 <= hi1
}

// CIDResult is the outcome of the Cross-Iteration Dependency
// Prediction (§4.4).
type CIDResult struct {
	HasCID bool
	// ConflictIter is the earliest iteration whose load would read an
	// address some earlier iteration stores (the "11th iteration" of
	// Fig. 14). Valid only when HasCID.
	ConflictIter int
	// Distance is the dependency distance in iterations, the smallest
	// j−i over every conflicting store iteration i and load iteration j:
	// a window of at most Distance iterations is safe to vectorize
	// (partial vectorization, §4.5). With unequal strides it can be
	// shorter than ConflictIter−firstIter. Valid only when HasCID.
	Distance int
	// Compares counts predictor evaluations (for the energy model).
	Compares int
}

// PredictCID applies the dissertation's equations 4.1–4.5 to every
// (store, load) pair over iterations [firstIter, lastIter]:
//
//	MGap            = |MRead[B] − MRead[A]| / gap        (4.5)
//	MRead[last]     = MRead[A] + MGap·(last − A)         (4.4)
//	window          = [MRead[B] .. MRead[last]]          (4.1)
//	MWrite[A] ∈ window → CID, else NCID                  (4.2, 4.3)
//
// It additionally reports the earliest conflicting iteration and the
// dependency distance, which sizes the partial-vectorization windows.
func PredictCID(patterns []MemPattern, firstIter, lastIter int) CIDResult {
	var res CIDResult
	for si := range patterns {
		s := &patterns[si]
		if !s.Store {
			continue
		}
		for li := range patterns {
			l := &patterns[li]
			if l.Store {
				continue
			}
			res.Compares++
			conflict, iter, dist := pairConflict(s, l, firstIter, lastIter)
			if !conflict {
				continue
			}
			if !res.HasCID || iter < res.ConflictIter {
				res.ConflictIter = iter
			}
			if !res.HasCID || dist < res.Distance {
				res.Distance = dist
			}
			res.HasCID = true
		}
	}
	return res
}

// pairConflict checks whether load l at some iteration j in
// (firstIter, lastIter] reads bytes that store s wrote at an earlier
// iteration i ≥ firstIter. It returns the earliest such j and the
// smallest j−i over all such pairs.
//
// Same-iteration accesses to the same address (v[i] read-then-write)
// are not cross-iteration dependencies; conflicts require
// load-iteration > store-iteration. Streams that stay inside the
// 32-bit address space are answered exactly with int64 arithmetic:
// O(1) for equal strides, one O(span) walk for unequal ones.
func pairConflict(s, l *MemPattern, firstIter, lastIter int) (conflict bool, iter, dist int) {
	// Fast reject: the store's full range never meets the load's.
	sLo, sHi := s.Range(firstIter, lastIter)
	lLo, lHi := l.Range(firstIter, lastIter)
	if !rangesOverlap(sLo, sHi, lLo, lHi) {
		return false, 0, 0
	}
	if patternBounded(s, firstIter, lastIter) && patternBounded(l, firstIter, lastIter) {
		if s.Stride == l.Stride {
			return pairConflictExact(s, l, firstIter, lastIter)
		}
		return pairConflictWalk(s, l, firstIter, lastIter)
	}
	// A stream that wraps the 32-bit space faults before any SIMD runs.
	// Short windows are scanned in uint32 arithmetic, each load
	// iteration against its nearest earlier stores first; longer ones
	// are assumed to conflict at once.
	if lastIter-firstIter > maxWrapScan {
		return true, firstIter + 1, 1
	}
	for j := firstIter + 1; j <= lastIter && dist != 1; j++ {
		jLo := l.AddrAt(j)
		jHi := jLo + uint32(l.Size) - 1
		for i := j - 1; i >= firstIter; i-- {
			iLo := s.AddrAt(i)
			iHi := iLo + uint32(s.Size) - 1
			if rangesOverlap(iLo, iHi, jLo, jHi) {
				if !conflict {
					conflict, iter = true, j
				}
				if dist == 0 || j-i < dist {
					dist = j - i
				}
				break
			}
		}
	}
	return conflict, iter, dist
}

// maxWrapScan bounds the O(span²) scan over wrapping streams.
const maxWrapScan = 4096

// pairConflictExact solves the equal-stride pair analytically. With a
// common stride st, store iteration i and load iteration j conflict iff
// the start-address difference D = (l0−s0) + st·(j−i) satisfies
// −(lSize−1) ≤ D ≤ sSize−1, so conflicts depend only on m = j−i ≥ 1.
// The earliest conflicting j is firstIter + m_min (take i = firstIter),
// and m_min is the dependency distance. Exact int64 arithmetic requires
// wrap-free streams; the caller checks patternBounded first.
func pairConflictExact(s, l *MemPattern, firstIter, lastIter int) (bool, int, int) {
	span := int64(lastIter - firstIter)
	if span < 1 {
		return false, 0, 0
	}
	d := (int64(l.AddrA) + l.Stride*int64(firstIter-l.RefIterA)) -
		(int64(s.AddrA) + s.Stride*int64(firstIter-s.RefIterA))
	lo := -int64(l.Size-1) - d // need st·m ≥ lo
	hi := int64(s.Size-1) - d  // need st·m ≤ hi
	st := s.Stride
	if st == 0 {
		if lo <= 0 && 0 <= hi {
			return true, firstIter + 1, 1
		}
		return false, 0, 0
	}
	if st < 0 {
		st = -st
		lo, hi = -hi, -lo
	}
	mMin := int64(1)
	if lo > 0 {
		mMin = (lo + st - 1) / st // ceil(lo/st)
	}
	if mMin < 1 {
		mMin = 1
	}
	if mMin*st > hi || mMin > span {
		return false, 0, 0
	}
	return true, firstIter + int(mMin), int(mMin)
}

// pairConflictWalk solves the unequal-stride pair exactly in one pass
// over load iterations j = firstIter+v. With u = i−firstIter, store
// iteration i writes from s0 + a·u, so the store iterations whose bytes
// meet load iteration j's bytes [L, L+lSize−1] are those with
// L−(sSize−1)−s0 ≤ a·u ≤ L+lSize−1−s0: one interval of u. j conflicts
// iff that interval meets [0, v−1], and its nearest store is the
// interval's top. The gap v−u is not monotone when the strides differ,
// so the walk runs until it sees a gap of 1. Like pairConflictExact it
// requires wrap-free streams.
func pairConflictWalk(s, l *MemPattern, firstIter, lastIter int) (conflict bool, iter, dist int) {
	s0 := int64(s.AddrA) + s.Stride*int64(firstIter-s.RefIterA)
	l0 := int64(l.AddrA) + l.Stride*int64(firstIter-l.RefIterA)
	for v := int64(1); v <= int64(lastIter-firstIter) && dist != 1; v++ {
		ld := l0 + l.Stride*v
		lo := ld - int64(s.Size-1) - s0 // need a·u ≥ lo
		hi := ld + int64(l.Size-1) - s0 // need a·u ≤ hi
		a := s.Stride
		if a < 0 {
			a, lo, hi = -a, -hi, -lo
		}
		uLo, uHi := int64(0), v-1
		if a == 0 {
			if lo > 0 || hi < 0 {
				continue
			}
		} else {
			if c := -floorDiv(-lo, a); c > uLo {
				uLo = c
			}
			if f := floorDiv(hi, a); f < uHi {
				uHi = f
			}
		}
		if uLo > uHi {
			continue
		}
		if !conflict {
			conflict, iter = true, firstIter+int(v)
		}
		if d := int(v - uHi); dist == 0 || d < dist {
			dist = d
		}
	}
	return conflict, iter, dist
}

// floorDiv rounds n/d toward −∞ for d > 0.
func floorDiv(n, d int64) int64 {
	q := n / d
	if n%d != 0 && n < 0 {
		q--
	}
	return q
}

// patternBounded reports whether every byte p touches over iterations
// [firstIter, lastIter] has an exact int64 address inside [0, 2^32) —
// no uint32 wrap, so closed-form address arithmetic is exact.
func patternBounded(p *MemPattern, firstIter, lastIter int) bool {
	a := int64(p.AddrA) + p.Stride*int64(firstIter-p.RefIterA)
	b := int64(p.AddrA) + p.Stride*int64(lastIter-p.RefIterA)
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	return lo >= 0 && hi+int64(p.Size) <= int64(1)<<32
}

// StoresDisjointFromLoads reports whether every store stream is
// disjoint from every load stream over the window — the legality
// condition for the Overlapping leftover technique (§4.8.2: re-running
// trailing operations must not change results).
func StoresDisjointFromLoads(patterns []MemPattern, firstIter, lastIter int) bool {
	for si := range patterns {
		s := &patterns[si]
		if !s.Store {
			continue
		}
		sLo, sHi := s.Range(firstIter, lastIter)
		for li := range patterns {
			l := &patterns[li]
			if l.Store {
				continue
			}
			lLo, lHi := l.Range(firstIter, lastIter)
			if rangesOverlap(sLo, sHi, lLo, lHi) {
				return false
			}
		}
	}
	return true
}
