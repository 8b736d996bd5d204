package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// Memory layout of generated programs. A program fills its inputs from
// its own LCG prologue, so it needs no host-side setup and runs the same
// in-process and as a service "source" job.
const (
	genInA    = 0x10000
	genInB    = 0x20000
	genOut    = 0x30000
	genParams = 0x8000
)

// genProgram is one seed-generated armlite program.
type genProgram struct {
	name string
	src  string
}

// genShapes are the loop shapes, one program each, adapted from the
// randomized differential corpus in internal/integration: count loops
// over words and bytes, a loop-carried dependence at distance d,
// dynamic-range loops whose trip count is reloaded and changed between
// entries, conditional and sentinel loops, and one program with more
// distinct hot loops than the default 8 KB DSA cache has entries (128).
//
// The seed picks operations, immediates, input data and the carried
// distance; trip counts, re-entries and chain lengths are fixed per
// shape, so every seed asks for the same amount of work of the same
// kind and the throughput metrics compare across seeds.
var genShapes = []struct {
	name string
	gen  func(r *rand.Rand) string
}{
	{"count_word", func(r *rand.Rand) string { return genCount(r, true) }},
	{"count_byte", func(r *rand.Rand) string { return genCount(r, false) }},
	{"carried_word", func(r *rand.Rand) string { return genCarried(r, true) }},
	{"carried_byte", func(r *rand.Rand) string { return genCarried(r, false) }},
	{"dynamic_word", func(r *rand.Rand) string { return genDynamic(r, true) }},
	{"dynamic_byte", func(r *rand.Rand) string { return genDynamic(r, false) }},
	{"cond_word", func(r *rand.Rand) string { return genCond(r, true) }},
	{"cond_byte", func(r *rand.Rand) string { return genCond(r, false) }},
	{"sentinel", genSentinel},
	{"sentinel_moving", genSentinelMoving},
	{"mixed", genMixed},
	{"hot160", genHot160},
}

// generate returns the seed's programs; the same seed always gives the
// same sources.
func generate(seed int64) []genProgram {
	r := rand.New(rand.NewSource(seed))
	out := make([]genProgram, len(genShapes))
	for i, s := range genShapes {
		out[i] = genProgram{name: fmt.Sprintf("gen%02d_%s", i, s.name), src: s.gen(r)}
	}
	return out
}

// width returns the load/store suffix and element size.
func width(word bool) (suffix string, step int) {
	if word {
		return "", 4
	}
	return "b", 1
}

// lcgFill emits a loop filling n elements at addr from an LCG seeded by
// r. nonzero forces every element odd, so sentinel scans stop only at
// the terminator the caller writes.
func lcgFill(r *rand.Rand, label string, addr, n int, word, nonzero bool) string {
	suffix, step := width(word)
	mask := 0xffff
	if !word {
		mask = 0xff
	}
	var b strings.Builder
	fmt.Fprintf(&b, `        mov   r8, #%d
        mov   r9, #1103515245
        mov   r5, #%d
        mov   r0, #0
%s:  mul   r8, r8, r9
        add   r8, r8, #12345
        lsr   r3, r8, #16
        and   r3, r3, #%d
`, 1+r.Int31n(1<<30), addr, label, mask)
	if nonzero {
		b.WriteString("        orr   r3, r3, #1\n")
	}
	fmt.Fprintf(&b, `        str%s  r3, [r5], #%d
        add   r0, r0, #1
        cmp   r0, #%d
        blt   %s
`, suffix, step, n, label)
	return b.String()
}

// opChain emits two ALU operations folding reg with r1 (when withB) or
// immediates.
func opChain(r *rand.Rand, reg string, word, withB bool) string {
	ops := []string{"add", "sub", "and", "orr", "eor"}
	if word {
		ops = append(ops, "mul")
	}
	var b strings.Builder
	for i := 0; i < 2; i++ {
		op := ops[r.Intn(len(ops))]
		if withB && r.Intn(2) == 0 {
			fmt.Fprintf(&b, "        %s   %s, %s, r1\n", op, reg, reg)
		} else {
			fmt.Fprintf(&b, "        %s   %s, %s, #%d\n", op, reg, reg, 1+r.Intn(100))
		}
	}
	return b.String()
}

// outerLoop wraps body in reps re-entries counted in r8, so every inner
// loop is hot and re-enters through the DSA cache.
func outerLoop(body string, reps int) string {
	return fmt.Sprintf(`        mov   r8, #0
outer:
%s        add   r8, r8, #1
        cmp   r8, #%d
        blt   outer
        halt
`, body, reps)
}

// countBody is a two-stream element-wise count loop labelled label.
func countBody(r *rand.Rand, label string, word bool, trip int) string {
	suffix, step := width(word)
	return fmt.Sprintf(`        mov   r5, #%d
        mov   r10, #%d
        mov   r2, #%d
        mov   r0, #0
%s:  ldr%s  r3, [r5], #%d
        ldr%s  r1, [r10], #%d
%s        str%s  r3, [r2], #%d
        add   r0, r0, #1
        cmp   r0, #%d
        blt   %s
`, genInA, genInB, genOut, label, suffix, step, suffix, step,
		opChain(r, "r3", word, true), suffix, step, trip, label)
}

// Fixed work per shape: elements per loop entry and loop re-entries.
const (
	genTrip = 256
	genReps = 16
)

func genCount(r *rand.Rand, word bool) string {
	return lcgFill(r, "fillA", genInA, genTrip, word, false) +
		lcgFill(r, "fillB", genInB, genTrip, word, false) +
		outerLoop(countBody(r, "loop", word, genTrip), genReps)
}

// genCarried writes a[i+d] from a[i]: a loop-carried dependence at
// distance d, drawn below the vector width (4 words or 16 bytes) so the
// cross-iteration predictor must always find a conflict.
func genCarried(r *rand.Rand, word bool) string {
	suffix, step := width(word)
	trip, d := genTrip, 1+r.Intn(16/step-1)
	body := fmt.Sprintf(`        mov   r6, #%d
        mov   r5, #%d
        mov   r10, #%d
        mov   r0, #0
loop:  ldr%s  r3, [r6], #%d
        ldr%s  r1, [r10], #%d
%s        str%s  r3, [r5], #%d
        add   r0, r0, #1
        cmp   r0, #%d
        blt   loop
`, genInA, genInA+d*step, genInB, suffix, step, suffix, step,
		opChain(r, "r3", word, true), suffix, step, trip)
	return lcgFill(r, "fillA", genInA, trip+d, word, false) +
		lcgFill(r, "fillB", genInB, trip, word, false) +
		outerLoop(body, genReps)
}

// genDynamic reloads its trip count from memory on every entry and
// stores a new one after each, so no two consecutive entries share a
// range: trip' = ((trip*5 + 3) & 127) + 16.
func genDynamic(r *rand.Rand, word bool) string {
	suffix, step := width(word)
	body := fmt.Sprintf(`        mov   r5, #%d
        mov   r10, #%d
        mov   r2, #%d
        ldr   r4, [r7]
        mov   r0, #0
loop:  ldr%s  r3, [r5], #%d
        ldr%s  r1, [r10], #%d
%s        str%s  r3, [r2], #%d
        add   r0, r0, #1
        cmp   r0, r4
        blt   loop
        mov   r6, #5
        mul   r4, r4, r6
        add   r4, r4, #3
        and   r4, r4, #127
        add   r4, r4, #16
        str   r4, [r7]
`, genInA, genInB, genOut, suffix, step, suffix, step,
		opChain(r, "r3", word, true), suffix, step)
	return lcgFill(r, "fillA", genInA, 144, word, false) +
		lcgFill(r, "fillB", genInB, 144, word, false) +
		fmt.Sprintf("        mov   r7, #%d\n        mov   r4, #64\n        str   r4, [r7]\n", genParams) +
		outerLoop(body, 3*genReps)
}

// condBody is an if/else loop over two streams (indexed addressing).
func condBody(r *rand.Rand, label string, word bool, trip int) string {
	suffix, _ := width(word)
	idx := ""
	if word {
		idx = ", lsl #2"
	}
	return fmt.Sprintf(`        mov   r5, #%d
        mov   r10, #%d
        mov   r2, #%d
        mov   r0, #0
        mov   r4, #%d
%s:  ldr%s  r3, [r5, r0%s]
        ldr%s  r1, [r10, r0%s]
        cmp   r3, r1
        ble   %s_else
%s        str%s  r3, [r2, r0%s]
        b     %s_end
%s_else:  str%s  r1, [r2, r0%s]
%s_end:  add   r0, r0, #1
        cmp   r0, r4
        blt   %s
`, genInA, genInB, genOut, trip, label, suffix, idx, suffix, idx, label,
		opChain(r, "r3", word, true), suffix, idx, label, label, suffix, idx, label, label)
}

func genCond(r *rand.Rand, word bool) string {
	return lcgFill(r, "fillA", genInA, genTrip, word, false) +
		lcgFill(r, "fillB", genInB, genTrip, word, false) +
		outerLoop(condBody(r, "loop", word, genTrip), genReps)
}

// sentinelBody scans the zero-terminated bytes at genInA.
func sentinelBody(r *rand.Rand) string {
	return fmt.Sprintf(`        mov   r5, #%d
        mov   r2, #%d
loop:  ldrb  r3, [r5], #1
        cmp   r3, #0
        beq   done
        mov   r4, r3
%s        strb  r4, [r2], #1
        b     loop
done:
`, genInA, genOut, opChain(r, "r4", false, false))
}

func genSentinel(r *rand.Rand) string {
	return lcgFill(r, "fillA", genInA, genTrip, false, true) +
		"        mov   r3, #0\n        strb  r3, [r5]\n" +
		outerLoop(sentinelBody(r), genReps)
}

// genSentinelMoving moves the terminator after every scan (position
// p' = ((p*3 + 7) & 255) + 32), so the sentinel range changes between
// entries and the learned range must follow it.
func genSentinelMoving(r *rand.Rand) string {
	move := fmt.Sprintf(`        mov   r3, #65
        strb  r3, [r7]
        sub   r6, r7, #%d
        mov   r9, #3
        mul   r6, r6, r9
        add   r6, r6, #7
        and   r6, r6, #255
        add   r6, r6, #32
        add   r7, r6, #%d
        mov   r3, #0
        strb  r3, [r7]
`, genInA, genInA)
	return lcgFill(r, "fillA", genInA, 320, false, true) +
		fmt.Sprintf("        mov   r7, #%d\n        mov   r3, #0\n        strb  r3, [r7]\n", genInA+100) +
		outerLoop(sentinelBody(r)+move, 2*genReps)
}

// genMixed runs a count loop and a conditional loop on every entry.
func genMixed(r *rand.Rand) string {
	const trip = genTrip / 2
	return lcgFill(r, "fillA", genInA, trip, true, false) +
		lcgFill(r, "fillB", genInB, trip, true, false) +
		outerLoop(countBody(r, "count", true, trip)+condBody(r, "cond", true, trip), genReps)
}

// genHot160 chains 160 distinct count loops, re-entered each pass: more
// hot loops than the default DSA cache holds, so LRU replacement evicts
// every entry before its loop comes round again.
func genHot160(r *rand.Rand) string {
	const loops = 160
	var body strings.Builder
	for l := 0; l < loops; l++ {
		fmt.Fprintf(&body, `        mov   r5, #%d
        mov   r2, #%d
        mov   r0, #0
hot%d:  ldr   r3, [r5], #4
%s        str   r3, [r2], #4
        add   r0, r0, #1
        cmp   r0, #%d
        blt   hot%d
`, genInA, genOut, l, opChain(r, "r3", true, false), 24, l)
	}
	return lcgFill(r, "fillA", genInA, 32, true, false) + outerLoop(body.String(), 3)
}
