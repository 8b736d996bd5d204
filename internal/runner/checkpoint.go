package runner

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/snapshot"
)

// DefaultSnapshotEvery is the step interval between periodic
// checkpoints when Options.SnapshotEvery is zero.
const DefaultSnapshotEvery = 5_000_000

// DefaultSnapshotInterval is the wall-clock interval between periodic
// checkpoints — a checkpoint is written when *either* it or the step
// interval is crossed, so a slow job stays durable.
const DefaultSnapshotInterval = 30 * time.Second

// checkpointer owns one job's snapshot files: it decides when a
// checkpoint is due, writes it crash-consistently, and restores the
// last good one. Save failures disable further checkpointing but never
// fail the run — a job without durability still beats no job.
//
// Checkpoint files are named by job and lease epoch
// ("<job>.e<epoch>.dsnp", epoch 0 outside a cluster). The coordinator
// mints a fresh epoch for every assignment, so workers sharing one
// snapshot directory can never clobber each other's files, and restore
// scans for the highest-epoch valid snapshot at or below this
// assignment's epoch — the takeover path: a new owner picks up the
// dead owner's last checkpoint by epoch order, never by luck.
type checkpointer struct {
	dir   string
	base  string // sanitized job name, extension stripped
	epoch uint64
	path  string // this attempt's write target

	everySteps uint64

	lastSteps uint64
	lastWall  time.Time
	disabled  bool
	saveErr   error

	// save is the current attempt's serializer, retained so a drain
	// can force a final checkpoint outside the periodic cadence.
	save func(w *snapshot.Writer) error
}

func newCheckpointer(job Job, opts Options) *checkpointer {
	if opts.SnapshotDir == "" {
		return nil
	}
	ck := &checkpointer{
		dir:        opts.SnapshotDir,
		base:       snapshotBase(job.Name),
		epoch:      job.Epoch,
		path:       filepath.Join(opts.SnapshotDir, snapshotFileName(job.Name, job.Epoch)),
		everySteps: opts.SnapshotEvery,
	}
	if ck.everySteps == 0 {
		ck.everySteps = DefaultSnapshotEvery
	}
	return ck
}

// snapshotBase maps a job name ("mm_32/extended") to a flat,
// filesystem-safe name stem.
func snapshotBase(jobName string) string {
	r := strings.NewReplacer("/", "_", string(os.PathSeparator), "_", " ", "_", ".", "_")
	return r.Replace(jobName)
}

// snapshotFileName is the checkpoint file name for a job at a lease
// epoch.
func snapshotFileName(jobName string, epoch uint64) string {
	return fmt.Sprintf("%s.e%d.dsnp", snapshotBase(jobName), epoch)
}

// arm points the checkpointer at one attempt: save serializes the
// attempt's simulation, and the periodic cadence restarts at steps.
func (ck *checkpointer) arm(steps uint64, save func(w *snapshot.Writer) error) {
	if ck == nil {
		return
	}
	ck.lastSteps, ck.lastWall, ck.save = steps, time.Now(), save
}

// maybeSave writes a checkpoint if one is due: everySteps steps or
// DefaultSnapshotInterval of wall time since the last one. The tick
// calls it at a step boundary; it reads the clock once per call.
func (ck *checkpointer) maybeSave(steps uint64) {
	if ck == nil || ck.disabled {
		return
	}
	now := time.Now()
	if steps-ck.lastSteps < ck.everySteps && now.Sub(ck.lastWall) < DefaultSnapshotInterval {
		return
	}
	if ck.saveNow() {
		ck.lastSteps, ck.lastWall = steps, now
	}
}

// saveNow serializes and writes a checkpoint immediately, reporting
// whether it succeeded. Failures disable the checkpointer (attributed
// via note) but never fail the run.
func (ck *checkpointer) saveNow() bool {
	if ck == nil || ck.disabled || ck.save == nil {
		return false
	}
	var w snapshot.Writer
	w.Epoch = ck.epoch
	if err := ck.save(&w); err != nil {
		ck.disable(err)
		return false
	}
	if err := w.WriteFile(ck.path); err != nil {
		ck.disable(err)
		return false
	}
	return true
}

func (ck *checkpointer) disable(err error) {
	ck.disabled = true
	if ck.saveErr == nil {
		ck.saveErr = err
	}
}

// restore loads the last good checkpoint through restoreFn. It returns
// "" when it resumed or found no checkpoint, and otherwise a note that
// attributes why the run restarts from zero (corruption class, version
// skew, epoch skew, mismatch). A bad file is deleted so the next
// attempt does not trip over it again, and the caller MUST rebuild its
// simulation from scratch: a failed restore may have partially
// overwritten state.
//
// The candidate set is every checkpoint of this job in the directory
// with an epoch at or below this assignment's; the highest-epoch
// structurally valid one is restored (validity is checked *before*
// touching the machine, so a corrupt high-epoch file falls through to
// the predecessor, and exactly one restoreFn call ever runs). After a
// successful restore, stale lower-epoch leftovers are deleted.
func (ck *checkpointer) restore(restoreFn func(r *snapshot.Reader) error) string {
	path, rd, cause := ck.pickSnapshot()
	if rd == nil {
		if cause != "" {
			return "restart-from-zero: " + cause
		}
		return ""
	}
	if err := restoreFn(rd); err != nil {
		os.Remove(path)
		return "restart-from-zero: " + restoreCause(err)
	}
	ck.pruneStale(path)
	return ""
}

// pickSnapshot selects the checkpoint to resume from. It returns a
// fully validated reader (or nil with the attributed cause of the
// best candidate's failure; cause is "" when no checkpoint exists at
// all — a clean cold start).
func (ck *checkpointer) pickSnapshot() (path string, rd *snapshot.Reader, cause string) {
	for _, c := range ck.candidates() {
		p := filepath.Join(ck.dir, c.name)
		rd, err := snapshot.ReadFile(p)
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				continue // lost a race with another owner's cleanup
			}
		} else if rd.Epoch() != c.epoch {
			// The filename and the header disagree on the fencing
			// token — a renamed or replayed file. Never resume it.
			err = fmt.Errorf("%w: file claims e%d, header says e%d", snapshot.ErrEpochSkew, c.epoch, rd.Epoch())
		} else {
			return p, rd, ""
		}
		// Invalid candidate: remove it and fall through to the next
		// lower epoch, keeping the *highest* candidate's failure as
		// the attributed cause.
		os.Remove(p)
		if cause == "" {
			cause = restoreCause(err)
		}
	}
	return "", nil, cause
}

// snapCand is one restorable checkpoint file of this job.
type snapCand struct {
	name  string
	epoch uint64
}

// candidates lists this job's checkpoint files with epochs at or below
// this assignment's, highest epoch first: "<job>.e<epoch>.dsnp", and
// the "<job>.<owner>.e<epoch>.dsnp" names earlier workers wrote. Files
// from epochs above ours would mean *we* are the stale owner; they are
// left untouched — the coordinator's fencing, not this worker, decides
// that conflict.
func (ck *checkpointer) candidates() []snapCand {
	ents, err := os.ReadDir(ck.dir)
	if err != nil {
		return nil
	}
	var out []snapCand
	prefix := ck.base + "."
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, ".dsnp") {
			continue
		}
		stem := strings.TrimSuffix(name, ".dsnp") // "<base>[.<owner>].e<epoch>"
		i := strings.LastIndex(stem, ".e")
		if i < len(ck.base) {
			continue
		}
		epoch, perr := strconv.ParseUint(stem[i+2:], 10, 64)
		if perr != nil || epoch > ck.epoch {
			continue
		}
		out = append(out, snapCand{name: name, epoch: epoch})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].epoch > out[j].epoch })
	return out
}

// pruneStale removes this job's checkpoint files below the epoch of
// the one just restored — dead owners' leftovers that can never be
// preferred again.
func (ck *checkpointer) pruneStale(keep string) {
	for _, c := range ck.candidates() {
		if p := filepath.Join(ck.dir, c.name); p != keep {
			os.Remove(p)
		}
	}
}

// restoreCause classifies a restore failure through the snapshot
// package's typed sentinels, never message text.
func restoreCause(err error) string {
	switch {
	case errors.Is(err, snapshot.ErrVersion):
		return "snapshot-version-skew"
	case errors.Is(err, snapshot.ErrEpochSkew):
		return "snapshot-epoch-skew"
	case errors.Is(err, snapshot.ErrMismatch):
		return "snapshot-mismatch"
	case errors.Is(err, snapshot.ErrBadMagic):
		return "snapshot-bad-magic"
	case errors.Is(err, snapshot.ErrTruncated), errors.Is(err, snapshot.ErrCorrupt):
		return "snapshot-corrupt"
	default:
		return "snapshot-read-error"
	}
}

// cleanup removes the job's snapshots after a successful terminal
// result; a failed job's last checkpoint stays on disk for post-mortem
// resume. Every file at or below our epoch goes — dead owners'
// leftovers included — but never a higher epoch's file:
// if one exists, we are the fenced stale owner and the current owner's
// state is not ours to delete.
func (ck *checkpointer) cleanup() {
	os.Remove(ck.path)
	for _, c := range ck.candidates() {
		os.Remove(filepath.Join(ck.dir, c.name))
	}
}

// note renders the checkpointer's non-fatal trouble (a disabled save)
// for result attribution.
func (ck *checkpointer) note() string {
	if ck == nil || ck.saveErr == nil {
		return ""
	}
	return fmt.Sprintf("checkpointing-disabled: %v", ck.saveErr)
}
