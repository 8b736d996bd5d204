package cluster

import (
	"os"
	"path/filepath"
	"testing"

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
