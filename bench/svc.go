package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/runner"
	"repro/internal/server"
	"repro/internal/workloads"
)

// clients is the closed loop's size, the host's core count: each client
// submits a job, waits for its SSE done event, reads the job's view,
// and only then submits its next job.
const clients = 2

// daemonRunner is the runner configuration cmd/dsasimd builds from its
// default flags.
var daemonRunner = runner.Options{Timeout: 2 * time.Minute, Retries: 1, Backoff: 100 * time.Millisecond}

// svcWorkload drives a dsasimd service through its HTTP API: standalone
// (server.New as cmd/dsasimd builds it, with two workers) or clustered
// (a coordinator and two in-process capacity-1 workers).
type svcWorkload struct {
	jobs []*jobKey
	seed int64
	dir  string
	base string
	stop func()
}

// setupSvc builds the job mix, every built-in workload in every mode
// plus the seed's generated programs as source jobs, and starts the
// service in a fresh state directory.
func setupSvc(cfg config, clustered bool) (*svcWorkload, error) {
	goldens, err := loadGoldens(cfg.goldenPath())
	if err != nil {
		return nil, err
	}
	builtins, err := builtinPrograms(workloads.Names(), goldens)
	if err != nil {
		return nil, err
	}
	gen, err := generatedPrograms(cfg.seed)
	if err != nil {
		return nil, err
	}
	jobs := keysOf(builtins, modes)
	for i, p := range gen {
		jobs = append(jobs, &jobKey{p, modes[i%len(modes)]})
	}
	dir, err := os.MkdirTemp("", "bench-svc-")
	if err != nil {
		return nil, err
	}
	w := &svcWorkload{jobs: jobs, seed: cfg.seed, dir: dir}
	if clustered {
		w.base, w.stop, err = startCluster(dir)
	} else {
		w.base, w.stop, err = startStandalone(dir)
	}
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return w, nil
}

func startStandalone(dir string) (string, func(), error) {
	srv, err := server.New(server.Config{
		Workers:     2,
		SnapshotDir: filepath.Join(dir, "snapshots"),
		StateFile:   filepath.Join(dir, "jobs.dsnp"),
		Runner:      daemonRunner,
	})
	if err != nil {
		return "", nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "bench: drain: %v\n", err)
		}
		ts.Close()
	}
	return ts.URL, stop, nil
}

func startCluster(dir string) (string, func(), error) {
	c, err := cluster.NewCoordinator(cluster.Config{LeaseTTL: time.Second, StateFile: filepath.Join(dir, "cluster.dsnp")})
	if err != nil {
		return "", nil, err
	}
	ts := httptest.NewServer(c.Handler())
	var wg sync.WaitGroup
	var workers []*cluster.Worker
	for i := 0; i < 2; i++ {
		w := cluster.NewWorker(cluster.WorkerConfig{
			Coordinator: ts.URL,
			Capacity:    1,
			SnapshotDir: filepath.Join(dir, "snapshots"),
			Runner:      daemonRunner,
		})
		workers = append(workers, w)
		wg.Add(1)
		go func() { defer wg.Done(); w.Run() }()
	}
	stop := func() {
		for _, w := range workers {
			w.Close()
		}
		wg.Wait()
		c.Close()
		ts.Close()
	}
	for deadline := time.Now().Add(10 * time.Second); !strings.Contains(c.Metrics(), "dsasimd_cluster_workers_live 2\n"); {
		if time.Now().After(deadline) {
			stop()
			return "", nil, fmt.Errorf("cluster workers did not join within 10s")
		}
		time.Sleep(time.Millisecond)
	}
	return ts.URL, stop, nil
}

func (w *svcWorkload) keys() []*jobKey { return w.jobs }

func (w *svcWorkload) warmup(c *collector) {
	dk := newDeck(w.jobs, w.seed)
	cl := newClient(w.base)
	defer cl.close()
	for i := 0; i < 2*clients; i++ {
		cl.job(dk.next(), nil, c)
	}
}

func (w *svcWorkload) load(d time.Duration, minJobs int, tr *tracer, c *collector) time.Duration {
	dk := newDeck(w.jobs, w.seed)
	var mu sync.Mutex
	issued := 0
	start := time.Now()
	next := func() *jobKey {
		mu.Lock()
		defer mu.Unlock()
		if issued >= minJobs && time.Since(start) >= d {
			return nil
		}
		issued++
		return dk.next()
	}
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := newClient(w.base)
			defer cl.close()
			for k := next(); k != nil; k = next() {
				cl.job(k, tr, c)
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

func (w *svcWorkload) close() {
	w.stop()
	os.RemoveAll(w.dir)
}

// serviceProbe sends eight jobs drawn from keys through a standalone
// service, for the service spans of a traced run whose workload does
// not reach one.
func serviceProbe(keys []*jobKey, seed int64, tr *tracer, c *collector) error {
	dir, err := os.MkdirTemp("", "bench-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	base, stop, err := startStandalone(dir)
	if err != nil {
		return err
	}
	defer stop()
	cl := newClient(base)
	defer cl.close()
	dk := newDeck(keys, seed)
	for i := 0; i < 8; i++ {
		cl.job(dk.next(), tr, c)
	}
	return nil
}

// client is one closed-loop client over a single connection.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}}
}

func (cl *client) close() { cl.hc.CloseIdleConnections() }

// job submits k, waits for its done event, checks the result and reads
// the job's view. The latency is submit to done event; the view's
// timestamps split it into service spans.
func (cl *client) job(k *jobKey, tr *tracer, c *collector) {
	body, err := json.Marshal(k.spec())
	if err != nil {
		c.fail(err, false)
		return
	}
	t0 := time.Now()
	var view server.JobView
	resp, err := cl.hc.Post(cl.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err == nil {
		err = decode(resp, http.StatusAccepted, &view)
	}
	t1 := time.Now()
	if err != nil {
		c.fail(fmt.Errorf("%s: submit: %w", k, err), false)
		return
	}
	res, err := cl.awaitDone(view.ID)
	t2 := time.Now()
	if err != nil {
		c.fail(fmt.Errorf("%s: job %s: %w", k, view.ID, err), false)
		return
	}
	if res.Status != string(runner.StatusOK) {
		c.fail(fmt.Errorf("%s: job %s ended %s: %s", k, view.ID, res.Status, res.Error), false)
		return
	}
	if k.prog.src == "" && res.Energy != nil {
		c.mu.Lock()
		c.model.note(k.prog.name, k.mode, res.Ticks, res.Energy.TotalNJ)
		c.mu.Unlock()
	}
	if err := checkResult(k, res); err != nil {
		c.fail(err, true)
		return
	}
	resp, err = cl.hc.Get(cl.base + "/v1/jobs/" + view.ID)
	if err == nil {
		err = decode(resp, http.StatusOK, &view)
	}
	if err != nil {
		c.fail(fmt.Errorf("%s: view %s: %w", k, view.ID, err), false)
		return
	}
	c.ok(k, t2.Sub(t0))
	if tr == nil {
		return
	}
	queued, err1 := time.Parse(time.RFC3339Nano, view.Queued)
	finished, err2 := time.Parse(time.RFC3339Nano, view.Finished)
	if err1 != nil || err2 != nil {
		return
	}
	// The runner's wall time ends at Finished; everything between
	// admission and the attempt's start is queueing and dispatch (on the
	// cluster it also holds the result's trip back to the coordinator).
	attempt := finished.Add(-time.Duration(res.WallNS))
	job, key := tr.newJob(), k.String()
	root := tr.add("job", -1, job, key, t0, t2)
	tr.add("server.submit", root, job, key, t0, t1)
	tr.add("server.queue", root, job, key, queued, attempt)
	tr.add("runner.attempt", root, job, key, attempt, finished)
	tr.add("server.done_lag", root, job, key, finished, t2)
}

// awaitDone follows the job's SSE stream to its done event.
func (cl *client) awaitDone(id string) (*server.ResultJSON, error) {
	resp, err := cl.hc.Get(cl.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("events: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev server.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return nil, fmt.Errorf("events: %w", err)
		}
		if ev.Type == "done" && ev.Result != nil {
			// Read to EOF so the connection goes back to the pool.
			_, _ = io.Copy(io.Discard, resp.Body)
			return ev.Result, nil
		}
	}
	return nil, fmt.Errorf("event stream ended without a done event (%v)", sc.Err())
}

// decode reads a JSON response with the wanted status into v.
func decode(resp *http.Response, want int, v any) error {
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, v)
}
