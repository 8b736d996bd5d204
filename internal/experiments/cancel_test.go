package experiments

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/cpu"
	"repro/internal/snapshot"
	"repro/internal/workloads"
)

// TestCancelMidTakeoverRollsBack: batch cancellation can land while a
// DSA takeover holds an open cpu.Checkpoint — takeover drivers call
// M.Step directly, so the cancel check fires inside the speculative
// region. guarded() must roll the machine back to the takeover-entry
// state *before* surfacing ErrCanceled, so a snapshot taken after the
// aborted run never captures half-applied speculative stores.
//
// str_prep is the probe workload on purpose: its sentinel takeovers
// write speculative windows *past* the real stop point. If rollback
// leaked those stores, the resumed scalar re-execution would exit at
// the sentinel without overwriting them and the final memory digest
// would diverge from the uninterrupted run's.
func TestCancelMidTakeoverRollsBack(t *testing.T) {
	w, err := workloads.ByName("str_prep")
	if err != nil {
		t.Fatal(err)
	}

	ref, err := buildSim(w, ModeDSAExt)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.run(); err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}
	want, err := ref.checkedState(w)
	if err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}

	// Sweep cancel points densely across the run so some land inside
	// open takeovers (asserted below via the takeover-wrapped error).
	const points = 64
	stride := want.steps / points
	if stride == 0 {
		stride = 1
	}
	errShutdown := errors.New("batch shutdown")
	sawMidTakeover := false
	for cancelAt := stride; cancelAt < want.steps; cancelAt += stride {
		victim, err := buildSim(w, ModeDSAExt)
		if err != nil {
			t.Fatal(err)
		}
		victim.m.SetCancelCheck(func() error {
			if victim.m.Steps >= cancelAt {
				return errShutdown
			}
			return nil
		}, 1)
		err = victim.run()
		if err == nil {
			continue // canceled in the final halt stretch: nothing to resume
		}
		if !errors.Is(err, cpu.ErrCanceled) || !errors.Is(err, errShutdown) {
			t.Fatalf("cancelAt=%d: run died of the wrong cause: %v", cancelAt, err)
		}
		if strings.Contains(err.Error(), "dsa takeover") {
			sawMidTakeover = true // surfaced through guarded(): checkpoint was open
		}

		// The job snapshot the runner would take after this abort.
		var sw snapshot.Writer
		if err := victim.sys.SaveState(&sw); err != nil {
			t.Fatalf("cancelAt=%d: save after cancel: %v", cancelAt, err)
		}
		rd, err := snapshot.Parse(sw.Bytes())
		if err != nil {
			t.Fatalf("cancelAt=%d: parse: %v", cancelAt, err)
		}
		resumed, err := buildSim(w, ModeDSAExt)
		if err != nil {
			t.Fatal(err)
		}
		if err := resumed.restore(rd); err != nil {
			t.Fatalf("cancelAt=%d: restore: %v", cancelAt, err)
		}
		if err := resumed.run(); err != nil {
			t.Fatalf("cancelAt=%d: resumed run: %v", cancelAt, err)
		}
		// Memory must land exactly on the uninterrupted image. (Engine
		// counters may legitimately differ: the aborted takeover's
		// analysis accounting is engine-side and the re-triggered
		// takeover repeats it, so only the architectural result is
		// compared here.)
		if err := w.Check(resumed.m); err != nil {
			t.Errorf("cancelAt=%d: resumed output check: %v", cancelAt, err)
		}
		if got := resumed.m.Mem.Sum64(); got != want.memSum {
			t.Errorf("cancelAt=%d: memory digest %016x, want %016x — rollback leaked speculative state",
				cancelAt, got, want.memSum)
		}
	}
	if !sawMidTakeover {
		t.Fatal("sweep never canceled inside an open takeover — widen the sweep")
	}
}
