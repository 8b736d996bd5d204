package runner

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/dsa"
	"repro/internal/snapshot"
)

// ownedSnapshotPath is the owner-namespaced checkpoint file name
// earlier cluster workers wrote ("<job>.<owner>.e<epoch>.dsnp"); restore
// still reads it, so a takeover across an upgrade finds the old
// owner's checkpoint.
func ownedSnapshotPath(dir, jobName, owner string, epoch uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s.%s.e%d.dsnp", snapshotBase(jobName), owner, epoch))
}

// writeOwnedCheckpoint is writeMidRunCheckpoint for cluster mode: it
// leaves an epoch-stamped checkpoint under an earlier worker's
// owner-namespaced name at roughly frac of the job's run behind, as a
// dead worker would.
func writeOwnedCheckpoint(t *testing.T, job Job, dir, owner string, epoch uint64, frac float64) (path string, atStep uint64) {
	t.Helper()
	sys, err := dsa.NewSystem(job.Workload.Scalar(), job.CPU, job.DSA)
	if err != nil {
		t.Fatal(err)
	}
	job.Workload.Setup(sys.M)
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	killStep := uint64(float64(sys.M.Steps) * frac)

	sys, err = dsa.NewSystem(job.Workload.Scalar(), job.CPU, job.DSA)
	if err != nil {
		t.Fatal(err)
	}
	job.Workload.Setup(sys.M)
	path = ownedSnapshotPath(dir, job.Name, owner, epoch)
	sys.SetRunHook(func() error {
		if sys.M.Steps < killStep {
			return nil
		}
		var w snapshot.Writer
		w.Epoch = epoch
		if err := sys.SaveState(&w); err != nil {
			return err
		}
		if err := w.WriteFile(path); err != nil {
			return err
		}
		atStep = sys.M.Steps
		return errStopForSnapshot
	})
	if err := sys.Run(); !errors.Is(err, errStopForSnapshot) {
		t.Fatalf("harness run ended with %v, want snapshot stop", err)
	}
	return path, atStep
}

// revokeMidRun runs job on a pool and revokes its lease from the
// progress callback (deterministic: the callback runs on the attempt's
// goroutine, so the next tick observes it).
func revokeMidRun(t *testing.T, job Job, dir string) Result {
	t.Helper()
	var p *Pool
	p = NewPool(Options{
		Workers:       1,
		SnapshotDir:   dir,
		ProgressEvery: 1000,
		OnProgress: func(pr Progress) {
			if pr.Steps > 5000 {
				p.Revoke(job.Name)
			}
		},
	})
	defer p.Close()
	return p.Do(context.Background(), job)
}

// TestPoolRevokeAndTakeover is the runner half of a cluster takeover,
// for a DSA job and a DSA-off one: Revoke stops the attempt at a step
// boundary with a final checkpoint under the old assignment's epoch,
// classified CauseRevoked (never retried or degraded); a different
// owner at a higher epoch then resumes that checkpoint to
// the bit-identical result of an uninterrupted run, and its success
// cleans every leftover file up.
func TestPoolRevokeAndTakeover(t *testing.T) {
	forEachMode(t, func(t *testing.T, job Job) {
		ref := referenceResult(t, job)
		dir := t.TempDir()

		job.Epoch = 3
		r := revokeMidRun(t, job, dir)
		if r.Status != StatusFailed || r.Cause != CauseRevoked {
			t.Fatalf("revoked job: status %s cause %q (err %v), want failed/%s", r.Status, r.Cause, r.Err, CauseRevoked)
		}
		if r.Degraded {
			t.Error("revoked job was degraded; revocation must not trigger the DSA-off rung")
		}
		old := filepath.Join(dir, snapshotFileName(job.Name, 3))
		if _, err := os.Stat(old); err != nil {
			t.Fatalf("revoke left no checkpoint at %s: %v", old, err)
		}

		// Takeover: new owner, bumped fencing epoch.
		resumed := job
		resumed.Epoch = 4
		resumed.Resume = true
		p2 := NewPool(Options{Workers: 1, SnapshotDir: dir})
		defer p2.Close()
		r2 := p2.Do(context.Background(), resumed)
		if r2.Status != StatusOK {
			t.Fatalf("takeover run: %+v (err %v)", r2, r2.Err)
		}
		if r2.ResumedFromStep == 0 {
			t.Error("takeover restarted from zero, want resume from the revoked owner's checkpoint")
		}
		if r2.ResumeNote != "" {
			t.Errorf("ResumeNote = %q, want clean resume", r2.ResumeNote)
		}
		if r2.MemSum != ref.MemSum || r2.Ticks != ref.Ticks || r2.Steps != ref.Steps {
			t.Errorf("takeover diverged: mem %016x ticks %d steps %d, want mem %016x ticks %d steps %d",
				r2.MemSum, r2.Ticks, r2.Steps, ref.MemSum, ref.Ticks, ref.Steps)
		}
		// Success removes this job's checkpoints at or below our epoch.
		for _, p := range remainingSnapshots(t, dir, job.Name) {
			t.Errorf("leftover checkpoint after successful takeover: %s", p)
		}
	})
}

// TestRestorePrefersHighestEpoch: with several owners' checkpoints of
// one job in a shared directory, restore picks the highest-epoch one at
// or below the assignment's epoch and deletes the stale lower-epoch
// leftovers at restore time — never "whichever file we saw first".
func TestRestorePrefersHighestEpoch(t *testing.T) {
	job := snapshotTestJob(t)
	dir := t.TempDir()

	// A standalone file (epoch 0) and two earlier workers' owned
	// checkpoints at different points of the run. Highest epoch is the
	// furthest along.
	standalone, _ := writeMidRunCheckpoint(t, job, dir)
	low, _ := writeOwnedCheckpoint(t, job, dir, "w1", 1, 0.3)
	high, at2 := writeOwnedCheckpoint(t, job, dir, "w2", 2, 0.6)

	// The pruning happens during restore, before the attempt steps;
	// observe it from the first progress sample — mid-run, well before
	// the terminal cleanup could also have deleted the files.
	var once sync.Once
	var standaloneGone, lowGone, highKept bool
	p := NewPool(Options{
		Workers:       1,
		SnapshotDir:   dir,
		ProgressEvery: 1000,
		OnProgress: func(pr Progress) {
			once.Do(func() {
				_, err := os.Stat(standalone)
				standaloneGone = errors.Is(err, os.ErrNotExist)
				_, err = os.Stat(low)
				lowGone = errors.Is(err, os.ErrNotExist)
				_, err = os.Stat(high)
				highKept = err == nil
			})
		},
	})
	defer p.Close()
	resumed := job
	resumed.Epoch = 5
	resumed.Resume = true
	r := p.Do(context.Background(), resumed)
	if r.Status != StatusOK {
		t.Fatalf("takeover run: %+v (err %v)", r, r.Err)
	}
	if r.ResumedFromStep != at2 {
		t.Errorf("ResumedFromStep = %d, want %d (the epoch-2 checkpoint)", r.ResumedFromStep, at2)
	}
	if !standaloneGone {
		t.Error("stale epoch-0 leftover survived restore")
	}
	if !lowGone {
		t.Error("stale epoch-1 leftover survived restore")
	}
	if !highKept {
		t.Error("the restored epoch-2 checkpoint was deleted before the run finished")
	}
}

// TestRestoreRejectsEpochSkew: a checkpoint whose filename and header
// disagree on the fencing epoch (a renamed or replayed file) must never
// be resumed — it is removed, the restart is attributed as epoch skew,
// and the from-zero run still produces the reference result.
func TestRestoreRejectsEpochSkew(t *testing.T) {
	job := snapshotTestJob(t)
	ref := referenceResult(t, job)
	dir := t.TempDir()

	// Header says epoch 1; rename the file to claim epoch 7.
	path, _ := writeOwnedCheckpoint(t, job, dir, "w1", 1, 0.5)
	forged := ownedSnapshotPath(dir, job.Name, "w1", 7)
	if err := os.Rename(path, forged); err != nil {
		t.Fatal(err)
	}

	resumed := job
	resumed.Epoch = 9
	resumed.Resume = true
	p := NewPool(Options{Workers: 1, SnapshotDir: dir})
	defer p.Close()
	r := p.Do(context.Background(), resumed)
	if r.Status != StatusOK {
		t.Fatalf("run after forged checkpoint: %+v (err %v)", r, r.Err)
	}
	if r.ResumedFromStep != 0 {
		t.Errorf("ResumedFromStep = %d, want 0 (forged checkpoint must not be resumed)", r.ResumedFromStep)
	}
	if !strings.Contains(r.ResumeNote, "restart-from-zero: snapshot-epoch-skew") {
		t.Errorf("ResumeNote = %q, want snapshot-epoch-skew attribution", r.ResumeNote)
	}
	if _, err := os.Stat(forged); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("forged checkpoint survived: %v", err)
	}
	if r.MemSum != ref.MemSum || r.Ticks != ref.Ticks || r.Steps != ref.Steps {
		t.Errorf("from-zero run diverged from reference")
	}
}

// TestRestoreIgnoresHigherEpochs: a checkpoint from an epoch above this
// assignment's means *we* hold the stale lease. The file is neither
// resumed nor deleted — fencing at the coordinator, not this worker,
// owns that conflict.
func TestRestoreIgnoresHigherEpochs(t *testing.T) {
	job := snapshotTestJob(t)
	dir := t.TempDir()
	future, _ := writeOwnedCheckpoint(t, job, dir, "w9", 9, 0.5)

	resumed := job
	resumed.Epoch = 2
	resumed.Resume = true
	p := NewPool(Options{Workers: 1, SnapshotDir: dir})
	defer p.Close()
	r := p.Do(context.Background(), resumed)
	if r.Status != StatusOK {
		t.Fatalf("stale-epoch run: %+v (err %v)", r, r.Err)
	}
	if r.ResumedFromStep != 0 {
		t.Errorf("ResumedFromStep = %d, want 0 (higher-epoch checkpoint is not ours)", r.ResumedFromStep)
	}
	if r.ResumeNote != "" {
		t.Errorf("ResumeNote = %q, want clean cold start", r.ResumeNote)
	}
	if _, err := os.Stat(future); err != nil {
		t.Errorf("higher-epoch checkpoint was touched: %v", err)
	}
}

// TestOwnedCheckpointsDoNotClobber: two owners of the same job name
// sharing one snapshot directory write distinct files — every
// assignment has its own epoch, and the epoch names the file.
func TestOwnedCheckpointsDoNotClobber(t *testing.T) {
	job := snapshotTestJob(t)
	dir := t.TempDir()

	j1 := job
	j1.Epoch = 1
	if r := revokeMidRun(t, j1, dir); r.Cause != CauseRevoked {
		t.Fatalf("w1 run: %+v", r)
	}
	j2 := job
	j2.Epoch = 2 // no Resume: a fresh assignment, not a takeover
	if r := revokeMidRun(t, j2, dir); r.Cause != CauseRevoked {
		t.Fatalf("w2 run: %+v", r)
	}

	for _, want := range []uint64{1, 2} {
		p := filepath.Join(dir, snapshotFileName(job.Name, want))
		rd, err := snapshot.ReadFile(p)
		if err != nil {
			t.Fatalf("checkpoint %s: %v", p, err)
		}
		if rd.Epoch() != want {
			t.Errorf("%s header epoch = %d, want %d", p, rd.Epoch(), want)
		}
	}
}

// remainingSnapshots lists the job's checkpoint files still in dir.
func remainingSnapshots(t *testing.T, dir, jobName string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), snapshotBase(jobName)+".") {
			out = append(out, e.Name())
		}
	}
	return out
}
