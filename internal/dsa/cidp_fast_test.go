package dsa

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/armlite"
	"repro/internal/asm"
)

// scanPairConflict is the windowed O(span²) reference the exact
// predictor must match — a verbatim copy of pairConflict's scan over
// wrapping streams. Each load iteration j is checked against store
// iterations j−1, j−2, … so its first hit is its nearest store.
func scanPairConflict(s, l *MemPattern, firstIter, lastIter int) (conflict bool, iter, dist int) {
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

// TestPairConflictExactMatchesScan pins the equal-stride closed form
// bit-identical to the windowed scan across randomized geometries:
// every stride sign, width mix, base offset (including grazing widths
// that are not stride multiples), and window length.
func TestPairConflictExactMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	sizes := []int{1, 2, 4}
	strides := []int64{-16, -8, -4, -3, -1, 0, 1, 2, 3, 4, 8, 256}
	trials := 0
	for _, st := range strides {
		for _, ss := range sizes {
			for _, ls := range sizes {
				for rep := 0; rep < 200; rep++ {
					base := uint32(0x10000 + rng.Intn(1<<16))
					off := int64(rng.Intn(64) - 32)
					first := 2
					last := first + rng.Intn(80)
					s := &MemPattern{Store: true, Size: ss, RefIterA: first,
						AddrA: base, Stride: st, DT: armlite.Word}
					l := &MemPattern{Store: false, Size: ls, RefIterA: first,
						AddrA: uint32(int64(base) + off), Stride: st, DT: armlite.Word}
					if !patternBounded(s, first, last) || !patternBounded(l, first, last) {
						continue
					}
					wantC, wantJ, wantD := scanPairConflict(s, l, first, last)
					gotC, gotJ, gotD := pairConflictExact(s, l, first, last)
					if wantC != gotC || wantJ != gotJ || wantD != gotD {
						t.Fatalf("st=%d ss=%d ls=%d off=%d window=[%d,%d]: scan=(%v,%d,%d) exact=(%v,%d,%d)",
							st, ss, ls, off, first, last, wantC, wantJ, wantD, gotC, gotJ, gotD)
					}
					trials++
				}
			}
		}
	}
	if trials < 10000 {
		t.Fatalf("only %d comparable trials ran", trials)
	}
}

// TestPairConflictWrapFallsBackToScan: a stream whose window wraps the
// 32-bit address space must not take the closed form (its arithmetic
// is exact-int64 only) — pairConflict must agree with the scan there
// too, via the fallback.
func TestPairConflictWrapFallsBackToScan(t *testing.T) {
	s := &MemPattern{Store: true, Size: 4, RefIterA: 2, AddrA: 0xFFFFFFF0, Stride: 8, DT: armlite.Word}
	l := &MemPattern{Store: false, Size: 4, RefIterA: 2, AddrA: 0x00000004, Stride: 8, DT: armlite.Word}
	if patternBounded(s, 2, 40) {
		t.Fatal("store stream should be unbounded (wraps)")
	}
	wantC, wantJ, wantD := scanPairConflict(s, l, 2, 40)
	gotC, gotJ, gotD := pairConflict(s, l, 2, 40)
	if wantC != gotC || wantJ != gotJ || wantD != gotD {
		t.Fatalf("wrap case: scan=(%v,%d,%d) pairConflict=(%v,%d,%d)", wantC, wantJ, wantD, gotC, gotJ, gotD)
	}
}

// TestPairConflictMatchesScan pins pairConflict to the windowed scan
// on every bounded geometry it can meet: equal and unequal strides of
// either sign, access widths up to a 16-byte vector, base offsets that
// are not stride multiples, and windows past 4,096 iterations.
func TestPairConflictMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sizes := []int{1, 2, 4, 16}
	strides := []int64{-16, -8, -4, -3, -1, 0, 1, 2, 3, 4, 8, 16, 256}
	want := 60000
	if raceEnabled {
		want /= 10 // the scan reference is O(span²) per geometry
	}
	trials, long := 0, 0
	for trials < want {
		ss, ls := sizes[rng.Intn(len(sizes))], sizes[rng.Intn(len(sizes))]
		sst := strides[rng.Intn(len(strides))]
		lst := sst
		if rng.Intn(2) == 0 {
			lst = strides[rng.Intn(len(strides))]
		}
		first := 2
		last := first + rng.Intn(80)
		if trials%500 == 0 {
			last = first + 4000 + rng.Intn(1000)
			long++
		}
		base := int64(0x100000 + rng.Intn(1<<16))
		off := int64(rng.Intn(128) - 64)
		if rng.Intn(4) == 0 {
			// Streams that start apart and run into each other.
			off = int64(rng.Intn(8192) - 4096)
		}
		s := &MemPattern{Store: true, Size: ss, RefIterA: first,
			AddrA: uint32(base), Stride: sst, DT: armlite.Word}
		l := &MemPattern{Store: false, Size: ls, RefIterA: first,
			AddrA: uint32(base + off), Stride: lst, DT: armlite.Word}
		if !patternBounded(s, first, last) || !patternBounded(l, first, last) {
			continue
		}
		wantC, wantJ, wantD := scanPairConflict(s, l, first, last)
		gotC, gotJ, gotD := pairConflict(s, l, first, last)
		if wantC != gotC || wantJ != gotJ || wantD != gotD {
			t.Fatalf("store (size %d, stride %d) load (size %d, stride %d) off=%d window=[%d,%d]: scan=(%v,%d,%d) pairConflict=(%v,%d,%d)",
				ss, sst, ls, lst, off, first, last, wantC, wantJ, wantD, gotC, gotJ, gotD)
		}
		trials++
	}
	if long < want/600 {
		t.Fatalf("only %d windows past 4,096 iterations ran", long)
	}
}

// TestPredictCIDLongLoops: the verdict for a geometry does not depend
// on whether the window is shorter or longer than 4,096 iterations, and
// its distance is that of the nearest conflicting pair. In the crossing
// case the store stream meets the invariant load at relative store
// iterations 5 and 6, so the first conflict is load 6 (ConflictIter 8),
// and loads 6 and 7 each read the store just before them: Distance 1,
// not 6.
func TestPredictCIDLongLoops(t *testing.T) {
	cases := []struct {
		name         string
		store        MemPattern
		load         MemPattern
		conflictIter int // 0: NCID
	}{
		{"store-2-bytes-ahead",
			MemPattern{Store: true, Size: 4, DT: armlite.Word, RefIterA: 2, AddrA: 0x10002, Stride: 4},
			MemPattern{Size: 4, DT: armlite.Word, RefIterA: 2, AddrA: 0x10000, Stride: 4}, 3},
		{"word-store-byte-load",
			MemPattern{Store: true, Size: 4, DT: armlite.Word, RefIterA: 2, AddrA: 0x10000, Stride: 1},
			MemPattern{Size: 1, DT: armlite.Byte, RefIterA: 2, AddrA: 0x10000, Stride: 1}, 3},
		{"store-stride-4-load-stride-8",
			MemPattern{Store: true, Size: 4, DT: armlite.Word, RefIterA: 2, AddrA: 0x10000, Stride: 4},
			MemPattern{Size: 4, DT: armlite.Word, RefIterA: 2, AddrA: 0x10000, Stride: 8}, 0},
		{"unaligned-store-crosses-invariant-load",
			MemPattern{Store: true, Size: 4, DT: armlite.Word, RefIterA: 2, AddrA: 0x10002, Stride: 4},
			MemPattern{Size: 4, DT: armlite.Word, RefIterA: 2, AddrA: 0x10018}, 8},
	}
	for _, c := range cases {
		for _, n := range []int{4000, 4098, 5000} {
			want := CIDResult{Compares: 1}
			if c.conflictIter != 0 {
				want = CIDResult{HasCID: true, ConflictIter: c.conflictIter, Distance: 1, Compares: 1}
			}
			if res := PredictCID([]MemPattern{c.load, c.store}, 2, n); res != want {
				t.Errorf("%s, n=%d: %+v, want %+v", c.name, n, res, want)
			}
		}
	}
}

// TestDependentLongLoopsRejected runs two count loops whose loads read
// bytes an earlier iteration stored, for 4,000 and for 5,000 iterations
// (either side of the length the predictor once switched at). Each must
// be rejected and leave the scalar run's memory image.
//
//   - store-ahead: the store runs 2 bytes ahead of the load on a common
//     4-byte stride, so every iteration reads bytes the previous one
//     wrote.
//   - crossing: a word store stream starting 2 bytes past a word
//     boundary crosses a loop-invariant word load. Stores 5 and 6 each
//     write half of the loaded word, so the loads of iterations 6 and 7
//     each read the previous iteration's store. A window as long as the
//     gap to the first conflict would read the invariant word once,
//     before store 6 in the same window writes half of it.
func TestDependentLongLoopsRejected(t *testing.T) {
	cases := []struct{ name, src string }{
		{"store-ahead", `
        mov   r5, #0x10000
        add   r2, r5, #2
        mov   r0, #0
        mov   r6, #0x10001
        mov   r4, #%d
loop:   ldr   r3, [r5], #4
        add   r3, r3, r6
        str   r3, [r2], #4
        add   r0, r0, #1
        cmp   r0, r4
        blt   loop
        halt
`},
		{"crossing", `
        mov   r5, #0x10018
        mov   r2, #0x10002
        mov   r0, #0
        mov   r6, #0x10001
        mov   r4, #%d
loop:   ldr   r3, [r5]
        add   r3, r3, r6
        str   r3, [r2], #4
        add   r0, r0, #1
        cmp   r0, r4
        blt   loop
        halt
`},
	}
	for _, c := range cases {
		for _, n := range []int{4000, 5000} {
			t.Run(fmt.Sprintf("%s/n=%d", c.name, n), func(t *testing.T) {
				prog := asm.MustAssemble(c.name, fmt.Sprintf(c.src, n))
				ref := runScalar(t, prog, nil)
				s := runDSA(t, prog, DefaultConfig(), nil)
				if got, want := s.M.Mem.Sum64(), ref.Mem.Sum64(); got != want {
					t.Errorf("memory digest %016x, want the scalar run's %016x", got, want)
				}
				st := s.Stats()
				if st.Takeovers != 0 || st.VectorizedIters != 0 {
					t.Errorf("takeovers = %d, vectorized iterations = %d, want none", st.Takeovers, st.VectorizedIters)
				}
				if st.RejectedReasons["cross-iteration-dependency"] == 0 {
					t.Errorf("rejections = %v, want cross-iteration-dependency", st.RejectedReasons)
				}
			})
		}
	}
}
