package experiments

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"testing"

	"repro/internal/workloads"
)

// The golden differential test: testdata/golden_digests.json pins every
// workload under every mode — memory image digest, tick count,
// retired-step count, DSA fallback attribution and the detection
// engine's accounting — as experiments.Run produces them. Its rows
// were first captured against the pre-predecode interpreter (the last
// interpreter that executed armlite.Instr directly), so replaying the
// suite pins the predecoded interpreter to the old one bit for bit.
// Regenerate the file only for an intentional semantic change, and say
// so in the commit:
//
//	go test ./internal/experiments -run TestGoldenDigests -update

var update = flag.Bool("update", false, "rewrite testdata/golden_digests.json from this build")

const goldenPath = "testdata/golden_digests.json"

// goldenModes is every mode, in the file's row order.
var goldenModes = []Mode{ModeScalar, ModeAutoVec, ModeHand, ModeDSAOrig, ModeDSAExt, ModeDSAAdaptive}

type golden struct {
	Workload        string            `json:"workload"`
	Mode            string            `json:"mode"`
	MemDigest       string            `json:"mem_digest"`
	Ticks           int64             `json:"ticks"`
	Steps           uint64            `json:"steps"`
	FallbackReasons map[string]uint64 `json:"fallback_reasons,omitempty"`
	DSA             *goldenDSA        `json:"dsa,omitempty"`
}

// goldenDSA pins the detection engine's accounting for dsa modes
// (schema v2): a fast path must charge every counter the slow path
// would have, so a skipped CIDP pass or cache access that forgets its
// stats shows up here as a hard diff.
type goldenDSA struct {
	AnalysisTicks    int64  `json:"analysis_ticks"`
	StateTransitions uint64 `json:"state_transitions"`
	LoopsDetected    uint64 `json:"loops_detected"`
	DSACacheAccesses uint64 `json:"dsa_cache_accesses"`
	DSACacheHits     uint64 `json:"dsa_cache_hits"`
	VCacheAccesses   uint64 `json:"vcache_accesses"`
	CIDPCompares     uint64 `json:"cidp_compares"`
	ArrayMapAccesses uint64 `json:"array_map_accesses"`
	Takeovers        uint64 `json:"takeovers"`
	VectorizedIters  uint64 `json:"vectorized_iters"`
	LeftoverElements uint64 `json:"leftover_elements"`
	OverheadTicks    int64  `json:"overhead_ticks"`
	// Adaptive-policy counters (schema v3); zero in every other mode.
	PolicyKept      uint64 `json:"policy_kept,omitempty"`
	PolicySuspended uint64 `json:"policy_suspended,omitempty"`
	PolicyTrialed   uint64 `json:"policy_trialed,omitempty"`
}

type goldenFile struct {
	Schema  string   `json:"schema"`
	Goldens []golden `json:"goldens"`
}

// goldenOf runs one workload under one mode and takes its golden row.
func goldenOf(w *workloads.Workload, mode Mode) (*golden, error) {
	r, m, err := run(w, mode)
	if err != nil {
		return nil, err
	}
	g := &golden{Workload: w.Name, Mode: string(mode),
		MemDigest: fmt.Sprintf("%016x", m.Mem.Sum64()), Ticks: r.Ticks, Steps: r.Steps}
	if r.DSA == nil {
		return g, nil
	}
	st := r.DSA.Snapshot()
	g.FallbackReasons = st.FallbackReasons
	g.DSA = &goldenDSA{
		AnalysisTicks:    st.AnalysisTicks,
		StateTransitions: st.StateTransitions,
		LoopsDetected:    st.LoopsDetected,
		DSACacheAccesses: st.DSACacheAccesses,
		DSACacheHits:     st.DSACacheHits,
		VCacheAccesses:   st.VCacheAccesses,
		CIDPCompares:     st.CIDPCompares,
		ArrayMapAccesses: st.ArrayMapAccesses,
		Takeovers:        st.Takeovers,
		VectorizedIters:  st.VectorizedIters,
		LeftoverElements: st.LeftoverElements,
		OverheadTicks:    st.OverheadTicks,
		PolicyKept:       st.PolicyKept,
		PolicySuspended:  st.PolicySuspended,
		PolicyTrialed:    st.PolicyTrialed,
	}
	return g, nil
}

// writeGoldens regenerates the golden file from this build.
func writeGoldens(t *testing.T) {
	f := goldenFile{Schema: "golden_digests/v3"}
	for _, w := range workloads.All() {
		for _, mode := range goldenModes {
			g, err := goldenOf(w, mode)
			if err != nil {
				t.Fatal(err)
			}
			f.Goldens = append(f.Goldens, *g)
		}
	}
	b, err := json.MarshalIndent(&f, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %d goldens to %s", len(f.Goldens), goldenPath)
}

func TestGoldenDigests(t *testing.T) {
	if *update {
		writeGoldens(t)
		return
	}
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var f goldenFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	if f.Schema != "golden_digests/v3" {
		t.Fatalf("schema = %q, want golden_digests/v3", f.Schema)
	}
	if len(f.Goldens) == 0 {
		t.Fatal("golden file is empty")
	}
	// Every workload x mode pair must be covered, so a new workload
	// without a regenerated golden file fails loudly instead of
	// silently going unpinned.
	want := len(workloads.All()) * len(goldenModes)
	if len(f.Goldens) != want {
		t.Errorf("golden file has %d entries, want %d (workloads x modes); regenerate with -update", len(f.Goldens), want)
	}
	for _, g := range f.Goldens {
		g := g
		t.Run(g.Workload+"/"+g.Mode, func(t *testing.T) {
			t.Parallel()
			w, err := workloads.ByName(g.Workload)
			if err != nil {
				t.Fatal(err)
			}
			got, err := goldenOf(w, Mode(g.Mode))
			if err != nil {
				t.Fatal(err)
			}
			if got.MemDigest != g.MemDigest {
				t.Errorf("memory digest = %s, want %s", got.MemDigest, g.MemDigest)
			}
			if got.Ticks != g.Ticks {
				t.Errorf("ticks = %d, want %d", got.Ticks, g.Ticks)
			}
			if got.Steps != g.Steps {
				t.Errorf("steps = %d, want %d", got.Steps, g.Steps)
			}
			if len(got.FallbackReasons) != 0 || len(g.FallbackReasons) != 0 {
				if !reflect.DeepEqual(got.FallbackReasons, g.FallbackReasons) {
					t.Errorf("fallback reasons = %v, want %v", got.FallbackReasons, g.FallbackReasons)
				}
			}
			if g.DSA != nil {
				if got.DSA == nil {
					t.Fatal("golden has dsa stats, replay produced none")
				}
				if !reflect.DeepEqual(got.DSA, g.DSA) {
					t.Errorf("dsa stats = %+v, want %+v", got.DSA, g.DSA)
				}
			}
		})
	}
}
