package cluster

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/snapshot"
)

// FuzzLoadState writes arbitrary bytes as a state file and loads it
// with both daemons' loaders: the standalone job table and the
// coordinator's tables. Neither may panic. A file either loads — and
// then restores into a table without panicking — or is moved aside to
// .bad with an error, never left for the next save to overwrite.
func FuzzLoadState(f *testing.F) {
	for _, pl := range contractPlanes {
		var w snapshot.Writer
		w.Add(pl.section, []byte(pl.payload))
		f.Add(w.Bytes())
	}
	for _, payload := range []string{`{"jobs":[{"id":"j1","status":"queued","owner":"w1"},{"id":"j1"}]}`, `{"jobs":`, `null`} {
		for _, section := range []string{"dsasimd.jobs", "dsasimd.cluster"} {
			var w snapshot.Writer
			w.Add(section, []byte(payload))
			f.Add(w.Bytes())
		}
	}
	f.Add([]byte("DSNP"))

	loaders := []func(path string) bool{
		func(path string) bool {
			st, err := server.LoadState(path)
			if st != nil {
				var tbl server.Table
				tbl.Restore(st.Jobs)
			}
			return err == nil
		},
		func(path string) bool {
			st, err := loadStateFile(path)
			if st != nil {
				c := &Coordinator{workers: map[string]*workerEntry{}}
				c.plane = server.NewPlane(server.Hooks{Mu: &c.mu}, 0, server.NewJobMetrics())
				c.adoptStateLocked(st)
			}
			return err == nil
		},
	}
	// One directory per fuzzing process: inputs run one at a time, and
	// a fresh directory per input would cost more than the load itself.
	path := filepath.Join(f.TempDir(), "state.dsnp")
	f.Fuzz(func(t *testing.T, data []byte) {
		for i, load := range loaders {
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if load(path) {
				continue
			}
			if _, err := os.Stat(path); err == nil {
				t.Fatalf("loader %d: bad state file left in place", i)
			}
			if err := os.Remove(path + ".bad"); err != nil {
				t.Fatalf("loader %d: bad state file not quarantined: %v", i, err)
			}
		}
	})
}

// FuzzReplicateBatch feeds arbitrary bytes to a standby the way the
// replication endpoint does: decode the batch, apply it to a fresh
// mirror, and export the mirror a promotion would adopt. Nothing may
// panic, and a batch that does not decode must fail as
// snapshot.ErrCorrupt (ErrTruncated wraps it), never half-applied.
//
// Seeds: a catch-up batch (a snapshot record, then one record of every
// delta kind), an empty liveness push, and the catch-up batch cut short.
func FuzzReplicateBatch(f *testing.F) {
	h := replicateHeader{LeaderEpoch: 2, Leader: "http://127.0.0.1:18091"}
	state := &clusterState{NextJob: 1, NextWorker: 1, NextEpoch: 1,
		Jobs: []server.JobRow{{ID: "j000001", Spec: server.JobSpec{Workload: "mm_32x32", Config: "extended"},
			Status: "queued", IdemKey: "k1"}},
		Workers: []persistedWorker{{ID: "w0001", Capacity: 2, Session: "s1"}}}
	full, err := encodeReplicateBatch(h, []repRecord{
		{Seq: 1, Kind: recSnapshot, State: state},
		{Seq: 2, Kind: recJob, Job: &server.JobRow{ID: "j000001", Spec: state.Jobs[0].Spec,
			Status: "running", Owner: "w0001", Epoch: 2<<32 | 1}},
		{Seq: 3, Kind: recWorker, Worker: &persistedWorker{ID: "w0002", Capacity: 1, Session: "s2"}},
		{Seq: 4, Kind: recWorkerDel, WorkerDel: "w0001"},
		{Seq: 5, Kind: recCounters, Counters: &repCounters{NextJob: 2, NextWorker: 3, NextEpoch: 2}},
	})
	if err != nil {
		f.Fatal(err)
	}
	empty, err := encodeReplicateBatch(h, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(full)
	f.Add(empty)
	f.Add(full[:len(full)-7])
	f.Fuzz(func(t *testing.T, data []byte) {
		h, recs, err := decodeReplicateBatch(data)
		if err != nil {
			if !errors.Is(err, snapshot.ErrCorrupt) {
				t.Fatalf("decode: untyped error %v", err)
			}
			return
		}
		sb := newStandby(h.LeaderEpoch, h.Leader, time.Second)
		sb.apply(recs)
		sb.export()
	})
}
