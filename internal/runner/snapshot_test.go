package runner

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cpu"
	"repro/internal/dsa"
	"repro/internal/snapshot"
	"repro/internal/workloads"
)

// snapshotTestJob is the one job these tests run: a workload long
// enough to checkpoint mid-run, under the extended DSA.
func snapshotTestJob(t *testing.T) Job {
	t.Helper()
	w, err := workloads.ByName("mm_32x32")
	if err != nil {
		t.Fatal(err)
	}
	return Job{
		Name:     w.Name + "/extended",
		Workload: w,
		CPU:      cpu.DefaultConfig(),
		DSA:      dsa.DefaultConfig(),
	}
}

// forEachMode runs f on the snapshot test job under the extended DSA
// and DSA-off, one subtest each: the two attempt paths checkpoint,
// drain and resume through the same tick.
func forEachMode(t *testing.T, f func(t *testing.T, job Job)) {
	for _, dsaOff := range []bool{false, true} {
		job := snapshotTestJob(t)
		job.DSAOff = dsaOff
		name := "dsa"
		if dsaOff {
			name = "dsa-off"
		}
		t.Run(name, func(t *testing.T) { f(t, job) })
	}
}

// referenceResult runs the job without any checkpointing.
func referenceResult(t *testing.T, job Job) Result {
	t.Helper()
	rep := Run(context.Background(), []Job{job}, Options{Workers: 1})
	r := rep.Results[0]
	if r.Status != StatusOK {
		t.Fatalf("reference run: %+v", r)
	}
	return r
}

var errStopForSnapshot = errors.New("snapshot harness: stop")

// writeMidRunCheckpoint simulates a killed batch: it runs the job's
// system up to roughly the middle and leaves a checkpoint file behind,
// exactly where the runner would look for it.
func writeMidRunCheckpoint(t *testing.T, job Job, dir string) (path string, atStep uint64) {
	t.Helper()
	sys, err := dsa.NewSystem(job.Workload.Scalar(), job.CPU, job.DSA)
	if err != nil {
		t.Fatal(err)
	}
	job.Workload.Setup(sys.M)
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	killStep := sys.M.Steps / 2

	sys, err = dsa.NewSystem(job.Workload.Scalar(), job.CPU, job.DSA)
	if err != nil {
		t.Fatal(err)
	}
	job.Workload.Setup(sys.M)
	path = filepath.Join(dir, snapshotFileName(job.Name, 0))
	sys.SetRunHook(func() error {
		if sys.M.Steps < killStep {
			return nil
		}
		var w snapshot.Writer
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

// TestRunnerResumeFromCheckpoint: a batch with -resume picks up a
// previous run's checkpoint mid-stream and still produces the exact
// result of an uninterrupted run, attributed via ResumedFromStep; the
// snapshot is deleted once the job succeeds.
func TestRunnerResumeFromCheckpoint(t *testing.T) {
	job := snapshotTestJob(t)
	ref := referenceResult(t, job)
	dir := t.TempDir()
	path, atStep := writeMidRunCheckpoint(t, job, dir)

	job.Resume = true
	rep := Run(context.Background(), []Job{job}, Options{
		Workers:     1,
		SnapshotDir: dir,
	})
	r := rep.Results[0]
	if r.Status != StatusOK {
		t.Fatalf("resumed run: %+v (err %v)", r, r.Err)
	}
	if r.ResumedFromStep != atStep {
		t.Errorf("ResumedFromStep = %d, want %d", r.ResumedFromStep, atStep)
	}
	if r.ResumeNote != "" {
		t.Errorf("ResumeNote = %q, want clean resume", r.ResumeNote)
	}
	if r.MemSum != ref.MemSum || r.Ticks != ref.Ticks {
		t.Errorf("resumed result diverged: mem %016x ticks %d, want mem %016x ticks %d",
			r.MemSum, r.Ticks, ref.MemSum, ref.Ticks)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("snapshot not cleaned up after success: stat err %v", err)
	}
}

// TestRunnerResumeWithoutFlag: without -resume a pre-existing
// checkpoint must be ignored — the job runs from zero.
func TestRunnerResumeWithoutFlag(t *testing.T) {
	job := snapshotTestJob(t)
	ref := referenceResult(t, job)
	dir := t.TempDir()
	writeMidRunCheckpoint(t, job, dir)

	rep := Run(context.Background(), []Job{job}, Options{
		Workers:     1,
		SnapshotDir: dir,
	})
	r := rep.Results[0]
	if r.Status != StatusOK {
		t.Fatalf("run: %+v (err %v)", r, r.Err)
	}
	if r.ResumedFromStep != 0 {
		t.Errorf("ResumedFromStep = %d, want 0 (resume not requested)", r.ResumedFromStep)
	}
	if r.MemSum != ref.MemSum || r.Ticks != ref.Ticks {
		t.Errorf("run diverged from reference: mem %016x ticks %d, want mem %016x ticks %d",
			r.MemSum, r.Ticks, ref.MemSum, ref.Ticks)
	}
}

// TestRunnerSnapshotFaultClasses sweeps every snapshot-file fault
// class (truncation, bit flip, version skew): each must be *detected*
// at restore — attributed restart-from-zero with the bad file deleted
// — and never resumed into divergent execution.
func TestRunnerSnapshotFaultClasses(t *testing.T) {
	job := snapshotTestJob(t)
	ref := referenceResult(t, job)

	wantCause := map[dsa.SnapshotFault]string{
		dsa.SnapTruncate:    "snapshot-corrupt",
		dsa.SnapBitFlip:     "snapshot-corrupt",
		dsa.SnapVersionSkew: "snapshot-version-skew",
	}
	for _, fault := range dsa.SnapshotFaults {
		fault := fault
		t.Run(fault.String(), func(t *testing.T) {
			dir := t.TempDir()
			path, _ := writeMidRunCheckpoint(t, job, dir)
			if err := dsa.InjectSnapshotFault(path, fault); err != nil {
				t.Fatal(err)
			}
			resumed := job
			resumed.Resume = true
			rep := Run(context.Background(), []Job{resumed}, Options{
				Workers:     1,
				SnapshotDir: dir,
			})
			r := rep.Results[0]
			if r.Status != StatusOK {
				t.Fatalf("run after %v: %+v (err %v)", fault, r, r.Err)
			}
			if r.ResumedFromStep != 0 {
				t.Errorf("resumed from step %d off a %v snapshot — fault not detected", r.ResumedFromStep, fault)
			}
			if !strings.Contains(r.ResumeNote, wantCause[fault]) {
				t.Errorf("ResumeNote = %q, want cause %q", r.ResumeNote, wantCause[fault])
			}
			// Detected, not divergent: the restart must reproduce the
			// uninterrupted result exactly.
			if r.MemSum != ref.MemSum || r.Ticks != ref.Ticks {
				t.Errorf("restart after %v diverged: mem %016x ticks %d, want mem %016x ticks %d",
					fault, r.MemSum, r.Ticks, ref.MemSum, ref.Ticks)
			}
			if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("bad snapshot left on disk: stat err %v", err)
			}
		})
	}
}

// TestRunnerMismatchedSnapshot: a checkpoint from a *different* job
// (different program) must be rejected by the fingerprint gate and
// restart from zero, not resume alien state.
func TestRunnerMismatchedSnapshot(t *testing.T) {
	job := snapshotTestJob(t)
	ref := referenceResult(t, job)

	other, err := workloads.ByName("bit_count")
	if err != nil {
		t.Fatal(err)
	}
	otherJob := Job{Name: other.Name + "/extended", Workload: other, CPU: job.CPU, DSA: job.DSA}

	dir := t.TempDir()
	otherPath, _ := writeMidRunCheckpoint(t, otherJob, dir)
	// Park the alien snapshot where job's resume will look.
	if err := os.Rename(otherPath, filepath.Join(dir, snapshotFileName(job.Name, 0))); err != nil {
		t.Fatal(err)
	}

	job.Resume = true
	rep := Run(context.Background(), []Job{job}, Options{
		Workers:     1,
		SnapshotDir: dir,
	})
	r := rep.Results[0]
	if r.Status != StatusOK {
		t.Fatalf("run: %+v (err %v)", r, r.Err)
	}
	if r.ResumedFromStep != 0 {
		t.Errorf("resumed from step %d off a mismatched snapshot", r.ResumedFromStep)
	}
	if !strings.Contains(r.ResumeNote, "snapshot-mismatch") {
		t.Errorf("ResumeNote = %q, want snapshot-mismatch", r.ResumeNote)
	}
	if r.MemSum != ref.MemSum || r.Ticks != ref.Ticks {
		t.Errorf("restart diverged from reference")
	}
}

// TestRunnerParentFormatCheckpoint: a checkpoint whose meta section
// still has the layout from before the issue width became a constant
// (program fingerprint, width 2, max-steps) is intact but no longer
// matches, so the next attempt restarts from zero with a
// snapshot-mismatch note instead of resuming.
func TestRunnerParentFormatCheckpoint(t *testing.T) {
	job := snapshotTestJob(t)
	ref := referenceResult(t, job)
	dir := t.TempDir()
	path, _ := writeMidRunCheckpoint(t, job, dir)

	rd, err := snapshot.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var old snapshot.Writer
	old.Epoch = rd.Epoch()
	for _, name := range rd.Names() {
		payload, err := rd.Section(name)
		if err != nil {
			t.Fatal(err)
		}
		if name == "meta" {
			var meta snapshot.Enc
			meta.U64(cpu.ProgramFingerprint(job.Workload.Scalar()))
			meta.Int(2)
			meta.U64(cpu.DefaultConfig().MaxSteps)
			payload = meta.Bytes()
		}
		old.Add(name, payload)
	}
	if err := old.WriteFile(path); err != nil {
		t.Fatal(err)
	}

	job.Resume = true
	rep := Run(context.Background(), []Job{job}, Options{
		Workers:     1,
		SnapshotDir: dir,
	})
	r := rep.Results[0]
	if r.Status != StatusOK {
		t.Fatalf("run: %+v (err %v)", r, r.Err)
	}
	if r.ResumedFromStep != 0 {
		t.Errorf("resumed from step %d off a parent-format checkpoint", r.ResumedFromStep)
	}
	if !strings.Contains(r.ResumeNote, "restart-from-zero: snapshot-mismatch") {
		t.Errorf("ResumeNote = %q, want restart-from-zero: snapshot-mismatch", r.ResumeNote)
	}
	if r.MemSum != ref.MemSum || r.Ticks != ref.Ticks || r.Steps != ref.Steps {
		t.Errorf("restart diverged from reference")
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("parent-format checkpoint left on disk: stat err %v", err)
	}
}

// TestRunnerPeriodicCheckpointing: with a small step interval the
// runner must leave a valid checkpoint behind when an attempt dies,
// and the retry must resume from it.
func TestRunnerPeriodicCheckpointing(t *testing.T) {
	job := snapshotTestJob(t)
	ref := referenceResult(t, job)
	dir := t.TempDir()

	// The attempt dies on a silently corrupting fault surfaced as a
	// hard oracle error (no in-run fallback), leaving its periodic
	// checkpoint behind.
	faulted := job
	faulted.DSA.Fault = dsa.FaultConfig{Kind: dsa.FaultCorruptCache, EveryN: 500}
	faulted.DSA.Verify = dsa.VerifyConfig{Enabled: true, Fallback: false}

	rep := Run(context.Background(), []Job{faulted}, Options{
		Workers:       1,
		Retries:       0,
		NoDegrade:     true,
		SnapshotDir:   dir,
		SnapshotEvery: 1000,
	})
	r := rep.Results[0]
	if r.Status != StatusFailed {
		t.Fatalf("faulted run: %+v, want failed (so the checkpoint survives)", r)
	}
	path := filepath.Join(dir, snapshotFileName(job.Name, 0))
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("failed job left no checkpoint: %v", err)
	}
	if _, err := snapshot.ReadFile(path); err != nil {
		t.Fatalf("left-behind checkpoint does not parse: %v", err)
	}

	// A healthy batch with -resume picks the checkpoint up. The clean
	// config differs from the faulted one, so this also exercises the
	// config gate: restore must refuse and restart from zero.
	job.Resume = true
	rep = Run(context.Background(), []Job{job}, Options{
		Workers:     1,
		SnapshotDir: dir,
	})
	r = rep.Results[0]
	if r.Status != StatusOK {
		t.Fatalf("resumed run: %+v (err %v)", r, r.Err)
	}
	if !strings.Contains(r.ResumeNote, "snapshot-mismatch") {
		t.Errorf("ResumeNote = %q, want snapshot-mismatch (fault config differs)", r.ResumeNote)
	}
	if r.MemSum != ref.MemSum {
		t.Errorf("result diverged from reference")
	}
}
