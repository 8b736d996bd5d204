package main

import (
	"path"
	"strings"
)

// layerRules charges a CPU profile sample to a layer by its leaf frame.
// The key is the frame's package path joined with its file name, such
// as "repro/internal/dsa/cidp.go" or "runtime/mgcmark.go"; the first
// rule whose prefix matches wins. A frame no rule names is charged to
// "<package>.other".
//
// The DSA buckets follow the paper's stages: detection (the retired
// instruction tap, loop tracks and the DSA cache), the cross-iteration
// dependence predictor, extraction (trip/range analysis, symbolic
// payload extraction and the conditional/sentinel decisions), and
// execution (plan build, the NEON executor and guarded takeovers, which
// share plan.go and system.go).
var layerRules = []struct{ prefix, bucket string }{
	{"repro/internal/cpu/persist.go", "snapshot"},
	{"repro/internal/mem/persist.go", "snapshot"},
	{"repro/internal/snapshot/", "snapshot"},
	{"repro/internal/cpu/", "cpu"},
	{"repro/internal/mem/", "mem"},
	{"repro/internal/neon/", "neon"},
	{"repro/internal/dsa/engine.go", "dsa.detect"},
	{"repro/internal/dsa/track.go", "dsa.detect"},
	{"repro/internal/dsa/config.go", "dsa.detect"},
	{"repro/internal/dsa/stats.go", "dsa.detect"},
	{"repro/internal/dsa/cidp.go", "dsa.cidp"},
	{"repro/internal/dsa/memo.go", "dsa.cidp"},
	{"repro/internal/dsa/extract.go", "dsa.extract"},
	{"repro/internal/dsa/symbolic.go", "dsa.extract"},
	{"repro/internal/dsa/engine2.go", "dsa.extract"},
	{"repro/internal/dsa/engine3.go", "dsa.extract"},
	{"repro/internal/dsa/plan.go", "dsa.exec"},
	{"repro/internal/dsa/system.go", "dsa.exec"},
	{"repro/internal/dsa/verify.go", "dsa.exec"},
	{"repro/internal/dsa/faultinject.go", "dsa.exec"},
	{"repro/internal/dsa/persist.go", "dsa.persist"},
	{"repro/internal/policy/", "policy"},
	{"repro/internal/energy/", "energy"},
	{"repro/internal/runner/", "runner"},
	{"repro/internal/server/", "server"},
	{"repro/internal/cluster/", "cluster"},
	{"repro/internal/asm/", "asm"},
	{"repro/internal/armlite/", "asm"},
	{"repro/internal/workloads/", "workloads"},
	{"repro/bench/", "bench"},
	{"main/", "bench"},
	{"net/", "nethttp"},
	{"bufio/", "nethttp"},
	{"mime/", "nethttp"},
	{"vendor/golang.org/x/net/", "nethttp"},
	{"encoding/", "json"},
	{"reflect/", "json"},
	{"internal/reflectlite/", "json"},
	{"strconv/", "json"},
	{"unicode/", "json"},
	{"fmt/", "stdlib"},
	{"strings/", "stdlib"},
	{"bytes/", "stdlib"},
	{"sort/", "stdlib"},
	{"slices/", "stdlib"},
	{"math/", "stdlib"},
	{"hash/", "stdlib"},
	{"errors/", "stdlib"},
	{"context/", "stdlib"},
	{"syscall/", "syscall"},
	{"internal/poll/", "syscall"},
	{"os/", "syscall"},
	// Allocation: zeroing reused spans (a machine's 16 MiB memory image
	// on construction) and the allocator itself.
	{"runtime/memclr", "alloc"},
	{"runtime/malloc", "alloc"},
	{"runtime/mheap.go", "alloc"},
	{"runtime/mcache.go", "alloc"},
	{"runtime/mcentral.go", "alloc"},
	{"runtime/mpage", "alloc"},
	{"runtime/mem_", "alloc"},
	{"runtime/mgc", "gc"},
	{"runtime/mbitmap.go", "gc"},
	{"runtime/mwbbuf.go", "gc"},
	{"runtime/mspanset.go", "gc"},
	{"runtime/", "runtime"},
	{"internal/", "runtime"},
	{"sync/", "runtime"},
	{"time/", "runtime"},
}

// layerBuckets lists every bucket the rules produce, in report order;
// each is reported as self.<bucket>_pct, and everything else together
// as self.other_pct.
var layerBuckets = []string{
	"cpu", "mem", "neon", "dsa.detect", "dsa.cidp", "dsa.extract", "dsa.exec", "dsa.persist",
	"policy", "energy", "snapshot", "runner", "server", "cluster", "asm", "workloads",
	"nethttp", "json", "stdlib", "syscall", "alloc", "gc", "runtime", "bench",
}

// bucketOf charges a leaf frame to its layer.
func bucketOf(fn, file string) string {
	pkg := pkgOf(fn)
	key := pkg + "/" + path.Base(file)
	for _, r := range layerRules {
		if strings.HasPrefix(key, r.prefix) {
			return r.bucket
		}
	}
	return pkg + ".other"
}

// pkgOf returns the package path of a symbol name such as
// "repro/internal/dsa.(*Engine).Observe". Symbols without a package
// ("aeshashbody", "memeqbody") are the runtime's assembly helpers.
func pkgOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return "runtime"
}
