package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/runner"
	"repro/internal/server"
)

// longSource is the service tests' controllable-duration workload: a
// scalar loop retiring ~7n instructions whose 4 KiB-window digest
// depends on the whole execution history, so digest equality means
// two runs agree on the accumulator's entire orbit.
func longSource(n int) string {
	return fmt.Sprintf(`
        mov   r0, #0
        mov   r1, #%d
outer:  mov   r2, #65536
        mov   r4, #0
inner:  add   r0, r0, #1
        add   r5, r5, r0
        eor   r5, r5, r1
        str   r5, [r2], #4
        add   r4, r4, #1
        cmp   r4, #1024
        blt   inner
        cmp   r0, r1
        blt   outer
        halt
`, n)
}

// newTestCoordinator builds a coordinator plus its HTTP front end.
func newTestCoordinator(t *testing.T, cfg Config) (*Coordinator, *httptest.Server) {
	t.Helper()
	cfg.Logf = t.Logf
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(func() {
		c.Close()
		ts.Close()
	})
	return c, ts
}

// startWorker runs a real in-process worker against the coordinator,
// closed (self-fencing) at test end. Register AFTER the coordinator so
// cleanup stops workers first.
func startWorker(t *testing.T, url, dir string, capacity int) *Worker {
	t.Helper()
	w := NewWorker(WorkerConfig{
		Coordinator: url,
		Capacity:    capacity,
		SnapshotDir: dir,
		Runner:      runner.Options{SnapshotEvery: 20_000, ProgressEvery: 10_000},
		Logf:        t.Logf,
	})
	done := make(chan struct{})
	go func() { w.Run(); close(done) }()
	t.Cleanup(func() {
		w.Close()
		<-done
	})
	return w
}

func submit(t *testing.T, ts *httptest.Server, spec server.JobSpec, wantCode int) *server.JobView {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		var msg bytes.Buffer
		_, _ = msg.ReadFrom(resp.Body)
		t.Fatalf("POST /v1/jobs: code = %d, want %d (body %s)", resp.StatusCode, wantCode, msg.String())
	}
	if wantCode != http.StatusAccepted {
		return nil
	}
	var view server.JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	return &view
}

func getJob(t *testing.T, ts *httptest.Server, id string) server.JobView {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatalf("GET job %s: %v", id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET job %s: code = %d", id, resp.StatusCode)
	}
	var view server.JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	return view
}

func waitTerminal(t *testing.T, ts *httptest.Server, id string, timeout time.Duration) server.JobView {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		v := getJob(t, ts, id)
		if server.Terminal(v.Status) {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s: timed out waiting for a terminal status (status %s)", id, v.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// referenceResult runs the spec directly on the runner — the
// single-process truth a cluster execution must reproduce bit for bit.
func referenceResult(t *testing.T, spec server.JobSpec) server.ResultJSON {
	t.Helper()
	job, err := spec.RunnerJob("ref")
	if err != nil {
		t.Fatal(err)
	}
	rep := runner.Run(context.Background(), []runner.Job{job}, runner.Options{Workers: 1})
	r := rep.Results[0]
	if r.Status != runner.StatusOK {
		t.Fatalf("reference run: %+v", r)
	}
	return server.ResultFromRunner(r)
}

// checkMatchesReference asserts the cluster result is bit-identical to
// the single-process reference: digest, ticks, and steps.
func checkMatchesReference(t *testing.T, v server.JobView, ref server.ResultJSON) {
	t.Helper()
	if v.Result == nil {
		t.Fatalf("job %s: no result", v.ID)
	}
	r := *v.Result
	if r.MemDigest != ref.MemDigest || r.Ticks != ref.Ticks || r.Steps != ref.Steps {
		t.Errorf("job %s diverged: digest %s ticks %d steps %d, want digest %s ticks %d steps %d",
			v.ID, r.MemDigest, r.Ticks, r.Steps, ref.MemDigest, ref.Ticks, ref.Steps)
	}
}

// fakeWorker drives the lease protocol over raw HTTP, so tests control
// exactly when it heartbeats, what it claims to run, and when it
// "dies" — the handle for crash, zombie, and fencing scenarios.
type fakeWorker struct {
	t       *testing.T
	url     string
	id      string
	session string
	seq     uint64
}

func joinFake(t *testing.T, url string, capacity int) *fakeWorker {
	t.Helper()
	f := &fakeWorker{t: t, url: url}
	var resp JoinResponse
	code := f.post("/cluster/v1/join", JoinRequest{Capacity: capacity}, &resp)
	if code != http.StatusOK || resp.Worker == "" {
		t.Fatalf("fake join: code %d, worker %q", code, resp.Worker)
	}
	if resp.Session == "" {
		t.Fatal("fake join: no session nonce")
	}
	f.id, f.session = resp.Worker, resp.Session
	return f
}

func (f *fakeWorker) post(path string, in, out any) int {
	f.t.Helper()
	body, err := json.Marshal(in)
	if err != nil {
		f.t.Fatal(err)
	}
	resp, err := http.Post(f.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		f.t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			f.t.Fatalf("decode %s: %v", path, err)
		}
	}
	return resp.StatusCode
}

// heartbeat sends the next in-sequence renewal and requires 200.
func (f *fakeWorker) heartbeat(running ...RunningJob) HeartbeatResponse {
	f.t.Helper()
	f.seq++
	resp, code := f.heartbeatRaw(HeartbeatRequest{Worker: f.id, Session: f.session, Seq: f.seq, Running: running})
	if code != http.StatusOK {
		f.t.Fatalf("fake heartbeat: code %d", code)
	}
	return resp
}

// heartbeatRaw sends an arbitrary heartbeat — possibly a replay, a
// stale session, or a foreign identity — and reports the status code.
func (f *fakeWorker) heartbeatRaw(req HeartbeatRequest) (HeartbeatResponse, int) {
	f.t.Helper()
	var resp HeartbeatResponse
	code := f.post("/cluster/v1/heartbeat", req, &resp)
	return resp, code
}

func (f *fakeWorker) complete(job string, epoch uint64, res server.ResultJSON) int {
	f.t.Helper()
	return f.post("/cluster/v1/complete", CompleteRequest{Worker: f.id, Job: job, Epoch: epoch, Result: res}, nil)
}

func probe(t *testing.T, ts *httptest.Server, path string) (int, map[string]string) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	var body map[string]string
	_ = json.NewDecoder(resp.Body).Decode(&body)
	return resp.StatusCode, body
}

func scrapeMetrics(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	var b bytes.Buffer
	_, _ = b.ReadFrom(resp.Body)
	return b.String()
}

// TestClusterEndToEnd: a coordinator with two real workers executes a
// batch of jobs to completion with results identical to single-process
// runs; readiness tracks worker liveness; the SSE stream delivers the
// terminal event.
func TestClusterEndToEnd(t *testing.T) {
	dir := t.TempDir()
	// Generous TTL: under -race on a small machine the interpreter loop
	// can starve the heartbeat goroutine for hundreds of milliseconds,
	// and a spurious lease lapse would only test robustness we exercise
	// deliberately elsewhere.
	_, ts := newTestCoordinator(t, Config{LeaseTTL: 3 * time.Second})

	// No workers yet: alive but not ready.
	if code, body := probe(t, ts, "/readyz"); code != http.StatusServiceUnavailable || body["reason"] != "no live workers" {
		t.Fatalf("readyz with no workers: code %d body %v", code, body)
	}
	if code, _ := probe(t, ts, "/healthz"); code != http.StatusOK {
		t.Fatalf("healthz: code %d", code)
	}

	startWorker(t, ts.URL, dir, 2)
	startWorker(t, ts.URL, dir, 2)
	waitReady(t, ts, 5*time.Second)

	spec := server.JobSpec{Name: "e2e", Source: longSource(20_000)}
	ref := referenceResult(t, spec)
	var ids []string
	for i := 0; i < 4; i++ {
		ids = append(ids, submit(t, ts, spec, http.StatusAccepted).ID)
	}
	for _, id := range ids {
		v := waitTerminal(t, ts, id, 60*time.Second)
		if v.Status != "ok" {
			t.Fatalf("job %s: %+v", id, v)
		}
		checkMatchesReference(t, v, ref)
		if v.Epoch == 0 {
			t.Errorf("job %s: terminal view has epoch 0, want the assignment's fencing epoch", id)
		}
		if v.Owner != "" {
			t.Errorf("job %s: terminal view still owned by %q", id, v.Owner)
		}
	}

	// SSE after completion: the terminal event is replayed immediately.
	ev := readDoneEvent(t, ts, ids[0])
	if ev.Result == nil || ev.Result.MemDigest != ref.MemDigest {
		t.Errorf("SSE done event: %+v, want replayed result with reference digest", ev)
	}

	m := scrapeMetrics(t, ts)
	// Exactly-once is exact: 4 jobs, 4 ok completions, no matter how
	// many lease sessions it took. Live/granted counts are lower bounds
	// (a starved worker may legitimately re-fence and rejoin).
	if !strings.Contains(m, `dsasimd_cluster_jobs_completed_total{status="ok"} 4`) {
		t.Errorf("metrics: want exactly 4 ok completions, got:\n%s", grepLine(m, "jobs_completed"))
	}
	if v := metricValue(t, m, "dsasimd_cluster_workers_live"); v < 1 {
		t.Errorf("workers_live = %d, want >= 1", v)
	}
	if v := metricValue(t, m, "dsasimd_cluster_leases_granted_total"); v < 2 {
		t.Errorf("leases_granted_total = %d, want >= 2", v)
	}
}

// metricValue parses one unlabeled series' value from an exposition.
func metricValue(t *testing.T, m, name string) int64 {
	t.Helper()
	for _, l := range strings.Split(m, "\n") {
		var v int64
		if _, err := fmt.Sscanf(l, name+" %d", &v); err == nil {
			return v
		}
	}
	t.Fatalf("metric %s absent", name)
	return 0
}

func waitReady(t *testing.T, ts *httptest.Server, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		if code, _ := probe(t, ts, "/readyz"); code == http.StatusOK {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("cluster never became ready")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// readDoneEvent reads the job's SSE stream until its "done" event.
func readDoneEvent(t *testing.T, ts *httptest.Server, id string) server.Event {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/jobs/"+id+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev server.Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad SSE payload %q: %v", line, err)
		}
		if ev.Type == "done" {
			return ev
		}
	}
	t.Fatalf("SSE stream ended without a done event: %v", sc.Err())
	return server.Event{}
}

// TestPlacementByFreeSlots: each queued job goes to the live worker
// with the most free slots, ties going to the lower worker ID. With
// capacities 1 and 2, three jobs fill both workers and a fourth waits.
func TestPlacementByFreeSlots(t *testing.T) {
	_, ts := newTestCoordinator(t, Config{LeaseTTL: time.Minute})
	small := joinFake(t, ts.URL, 1)
	big := joinFake(t, ts.URL, 2)
	if small.id >= big.id {
		t.Fatalf("worker IDs %s, %s: want the first join to get the lower ID", small.id, big.id)
	}
	spec := server.JobSpec{Workload: "mm_32x32", Config: "extended"}
	want := []string{
		big.id,   // free slots 1 vs 2
		small.id, // 1 vs 1: the tie goes to the lower ID
		big.id,   // 0 vs 1
		"",       // both full: the job waits
	}
	for i, owner := range want {
		v := submit(t, ts, spec, http.StatusAccepted)
		if got := getJob(t, ts, v.ID); got.Owner != owner {
			t.Errorf("job %d (%s) owner = %q, want %q", i+1, v.ID, got.Owner, owner)
		}
	}
}

// TestLeaseExpiryTakeover is the failure-detection story in-process: a
// worker checkpoints a job mid-run and dies (stops heartbeating); the
// coordinator expires its lease, requeues the job at a higher epoch,
// and a surviving worker resumes from the dead worker's checkpoint to
// the bit-identical single-process result.
func TestLeaseExpiryTakeover(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestCoordinator(t, Config{LeaseTTL: 1500 * time.Millisecond})

	// Reference first: it runs inline and must not eat into the fake
	// worker's lease.
	spec := server.JobSpec{Name: "takeover", Source: longSource(300_000)}
	ref := referenceResult(t, spec)
	f := joinFake(t, ts.URL, 1)
	id := submit(t, ts, spec, http.StatusAccepted).ID

	// The fake worker picks up its assignment...
	hb := f.heartbeat()
	if len(hb.Start) != 1 || hb.Start[0].Job != id || hb.Start[0].Epoch != 1 {
		t.Fatalf("fake heartbeat start = %+v, want [%s @ epoch 1]", hb.Start, id)
	}
	a := hb.Start[0]

	// ...runs it partway with checkpointing under its lease epoch,
	// leaves a mid-run checkpoint behind (as its periodic cadence
	// would), and dies without another heartbeat.
	var pool *runner.Pool
	pool = runner.NewPool(runner.Options{
		Workers: 1, SnapshotDir: dir,
		SnapshotEvery: 5_000, ProgressEvery: 2_000,
		OnProgress: func(p runner.Progress) {
			if p.Steps > 100_000 {
				pool.Revoke(id)
			}
		},
	})
	job, err := a.Spec.RunnerJob(a.Job)
	if err != nil {
		t.Fatal(err)
	}
	job.Epoch = a.Epoch
	r := pool.Do(context.Background(), job)
	pool.Close()
	if r.Cause != runner.CauseRevoked {
		t.Fatalf("fake worker's run: %+v, want revoked with checkpoint kept", r)
	}

	// A healthy worker joins; the expiry loop declares the fake dead
	// and hands the job over.
	startWorker(t, ts.URL, dir, 1)
	v := waitTerminal(t, ts, id, 60*time.Second)
	if v.Status != "ok" {
		t.Fatalf("job after takeover: %+v", v)
	}
	if v.Epoch < 2 {
		t.Errorf("takeover epoch = %d, want >= 2 (reassignment must bump the fencing token)", v.Epoch)
	}
	if v.Result.ResumedFromStep == 0 {
		t.Error("takeover restarted from zero, want resume from the dead worker's checkpoint")
	}
	checkMatchesReference(t, v, ref)

	m := scrapeMetrics(t, ts)
	if n := metricValue(t, m, "dsasimd_cluster_leases_expired_total"); n < 1 {
		t.Errorf("leases_expired_total = %d, want >= 1", n)
	}
	if n := metricValue(t, m, "dsasimd_cluster_takeovers_total"); n < 1 {
		t.Errorf("takeovers_total = %d, want >= 1", n)
	}

	// The dead worker's heartbeat after expiry is fenced with 409.
	f.seq++
	if _, code := f.heartbeatRaw(HeartbeatRequest{Worker: f.id, Session: f.session, Seq: f.seq}); code != http.StatusConflict {
		t.Errorf("expired worker's heartbeat: code %d, want 409", code)
	}
}

// TestZombieFencing is the double-takeover race: a worker that lost
// its lease (but doesn't know it yet) must not be able to affect the
// job in any way — its completion and progress writes bounce off the
// epoch fence with 409, completion stays exactly-once, and its next
// heartbeat fences it for good.
func TestZombieFencing(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestCoordinator(t, Config{LeaseTTL: 1500 * time.Millisecond})

	spec := server.JobSpec{Name: "fenced", Source: longSource(20_000)}
	ref := referenceResult(t, spec)
	zombie := joinFake(t, ts.URL, 1)
	id := submit(t, ts, spec, http.StatusAccepted).ID
	hb := zombie.heartbeat()
	if len(hb.Start) != 1 {
		t.Fatalf("zombie never got the assignment: %+v", hb)
	}
	zombieEpoch := hb.Start[0].Epoch

	// The zombie sits on the assignment without heartbeating; a real
	// worker takes over and finishes the job.
	startWorker(t, ts.URL, dir, 1)
	v := waitTerminal(t, ts, id, 60*time.Second)
	if v.Status != "ok" {
		t.Fatalf("job: %+v", v)
	}
	checkMatchesReference(t, v, ref)

	// The zombie wakes up and tries to submit a conflicting result
	// under its stale epoch: fenced, and the stored result unchanged.
	forged := server.ResultJSON{Job: id, Status: "failed", Cause: "zombie"}
	if code := zombie.complete(id, zombieEpoch, forged); code != http.StatusConflict {
		t.Errorf("zombie completion: code %d, want 409", code)
	}
	if code := zombie.post("/cluster/v1/progress",
		ProgressRequest{Worker: zombie.id, Job: id, Epoch: zombieEpoch, Progress: server.ProgressJSON{Job: id, Steps: 1}}, nil); code != http.StatusConflict {
		t.Errorf("zombie progress: code %d, want 409", code)
	}
	// Exactly-once holds even for the *winning* lease: the job is
	// terminal, so any further completion is fenced too.
	if code := zombie.complete(id, v.Epoch, *v.Result); code != http.StatusConflict {
		t.Errorf("duplicate completion: code %d, want 409", code)
	}
	if after := getJob(t, ts, id); after.Result.MemDigest != ref.MemDigest || after.Status != "ok" {
		t.Errorf("zombie writes corrupted the stored result: %+v", after.Result)
	}

	zombie.seq++
	if _, code := zombie.heartbeatRaw(HeartbeatRequest{Worker: zombie.id, Session: zombie.session, Seq: zombie.seq}); code != http.StatusConflict {
		t.Errorf("zombie heartbeat: code %d, want 409", code)
	}
	if n := metricValue(t, scrapeMetrics(t, ts), "dsasimd_cluster_fenced_writes_total"); n < 3 {
		t.Errorf("fenced_writes_total = %d, want >= 3", n)
	}
}

// TestCoordinatorRestartRecovery: a restarted coordinator recovers the
// job table, the lease table, and — critically — the epoch counter
// from its CRC-validated state file: live workers keep their leases
// and epochs, stale epochs stay fenced, and new assignments continue
// the monotonic epoch sequence instead of reissuing old tokens.
func TestCoordinatorRestartRecovery(t *testing.T) {
	stateFile := filepath.Join(t.TempDir(), "cluster.state")
	cfg := Config{LeaseTTL: time.Second, StateFile: stateFile, Logf: t.Logf}

	c1, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(c1.Handler())
	f := joinFake(t, ts1.URL, 2)
	spec := server.JobSpec{Name: "restart", Source: longSource(20_000)}
	id := submit(t, ts1, spec, http.StatusAccepted).ID
	hb := f.heartbeat()
	if len(hb.Start) != 1 || hb.Start[0].Epoch != 1 {
		t.Fatalf("assignment before restart: %+v", hb.Start)
	}
	// Worker reports it running, then the coordinator goes down.
	f.heartbeat(RunningJob{Job: id, Epoch: 1})
	c1.Close()
	ts1.Close()

	c2, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(c2.Handler())
	t.Cleanup(func() { c2.Close(); ts2.Close() })
	f.url = ts2.URL

	// The lease — identity AND session nonce — survived: the heartbeat
	// is accepted, and the job is still ours at the same epoch (no
	// spurious start/stop).
	hb = f.heartbeat(RunningJob{Job: id, Epoch: 1})
	if len(hb.Stop) != 0 || len(hb.Start) != 0 {
		t.Fatalf("post-restart heartbeat: %+v, want lease continuity", hb)
	}
	v := getJob(t, ts2, id)
	if v.Owner != f.id || v.Epoch != 1 {
		t.Fatalf("restored job: owner %q epoch %d, want %q epoch 1", v.Owner, v.Epoch, f.id)
	}

	// A stale (never-issued or pre-restart) epoch is still fenced.
	if code := f.complete(id, 99, server.ResultJSON{Job: id, Status: "ok"}); code != http.StatusConflict {
		t.Errorf("stale-epoch completion after restart: code %d, want 409", code)
	}

	// The epoch counter continued: the next assignment's token is
	// strictly above every pre-restart one.
	id2 := submit(t, ts2, spec, http.StatusAccepted).ID
	v2 := getJob(t, ts2, id2)
	if v2.Epoch != 2 {
		t.Errorf("post-restart assignment epoch = %d, want 2 (monotonic across restart)", v2.Epoch)
	}

	// The real completion under the surviving lease is accepted,
	// exactly once.
	res := server.ResultJSON{Job: id, Status: "ok", MemDigest: "feedface00000000"}
	if code := f.complete(id, 1, res); code != http.StatusOK {
		t.Errorf("completion under surviving lease: code %d, want 200", code)
	}
	if code := f.complete(id, 1, res); code != http.StatusConflict {
		t.Errorf("second completion: code %d, want 409", code)
	}
}

// TestHeartbeatReplayFencing pins the session-nonce and sequence-number
// checks: a delayed or duplicated heartbeat — in particular one
// replayed from a fenced predecessor session — must be rejected with
// 409 and must never renew anyone's lease.
func TestHeartbeatReplayFencing(t *testing.T) {
	_, ts := newTestCoordinator(t, Config{LeaseTTL: 600 * time.Millisecond})

	f := joinFake(t, ts.URL, 1)
	f.heartbeat()

	// An exact duplicate of the last heartbeat (same session, same seq
	// — a retransmitted datagram) is rejected...
	if _, code := f.heartbeatRaw(HeartbeatRequest{Worker: f.id, Session: f.session, Seq: f.seq}); code != http.StatusConflict {
		t.Errorf("duplicated heartbeat: code %d, want 409", code)
	}
	// ...without harming the live session: the next in-sequence
	// renewal still lands.
	f.heartbeat()

	// Replayed heartbeats must not keep a silent worker alive: with
	// only replays of an already-accepted seq arriving for well past
	// the TTL, the lease expires on schedule...
	lastReal := f.seq
	deadline := time.Now().Add(3 * 600 * time.Millisecond)
	for time.Now().Before(deadline) {
		if _, code := f.heartbeatRaw(HeartbeatRequest{Worker: f.id, Session: f.session, Seq: lastReal}); code != http.StatusConflict {
			t.Fatal("replayed heartbeat was accepted")
		}
		time.Sleep(50 * time.Millisecond)
	}
	// ...so even a fresh, in-sequence renewal now finds no lease.
	if _, code := f.heartbeatRaw(HeartbeatRequest{Worker: f.id, Session: f.session, Seq: lastReal + 1}); code != http.StatusConflict {
		t.Fatal("lease survived on replayed heartbeats alone")
	}

	// A successor takes over the cluster; the predecessor's delayed
	// duplicate — even aimed at the successor's worker ID — carries the
	// dead session's nonce and cannot extend the successor's lease.
	s := joinFake(t, ts.URL, 1)
	if _, code := f.heartbeatRaw(HeartbeatRequest{Worker: s.id, Session: f.session, Seq: 1}); code != http.StatusConflict {
		t.Errorf("predecessor-session heartbeat against successor lease: code %d, want 409", code)
	}
	if _, code := f.heartbeatRaw(HeartbeatRequest{Worker: f.id, Session: f.session, Seq: f.seq + 1}); code != http.StatusConflict {
		t.Errorf("fenced predecessor's own heartbeat: code %d, want 409", code)
	}
	s.heartbeat() // the successor is unaffected

	if n := metricValue(t, scrapeMetrics(t, ts), "dsasimd_cluster_heartbeats_rejected_total"); n < 3 {
		t.Errorf("heartbeats_rejected_total = %d, want >= 3", n)
	}
}

// submitIdem posts a spec under an Idempotency-Key and returns the
// decoded view plus whether the response was marked as a replay.
func submitIdem(t *testing.T, url string, spec server.JobSpec, key string) (server.JobView, bool) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", url+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Idempotency-Key", key)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs (key %q): code %d", key, resp.StatusCode)
	}
	var view server.JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	return view, resp.Header.Get("Idempotency-Replayed") == "true"
}

// TestSubmitIdempotency: resubmitting under the same Idempotency-Key
// replays the original job instead of creating a twin — including
// across a coordinator restart, via the CRC state file — while
// distinct keys create distinct jobs.
func TestSubmitIdempotency(t *testing.T) {
	stateFile := filepath.Join(t.TempDir(), "cluster.state")
	cfg := Config{LeaseTTL: time.Second, StateFile: stateFile, Logf: t.Logf}

	c1, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(c1.Handler())
	spec := server.JobSpec{Name: "idem", Source: longSource(10_000)}

	first, replayed := submitIdem(t, ts1.URL, spec, "key-alpha")
	if replayed {
		t.Fatal("first submission marked as a replay")
	}
	second, replayed := submitIdem(t, ts1.URL, spec, "key-alpha")
	if second.ID != first.ID {
		t.Fatalf("same key produced two jobs: %s and %s", first.ID, second.ID)
	}
	if !replayed {
		t.Error("replayed submission not marked with Idempotency-Replayed")
	}
	other, replayed := submitIdem(t, ts1.URL, spec, "key-beta")
	if other.ID == first.ID || replayed {
		t.Fatalf("distinct key did not create a distinct job: %+v (replayed %v)", other, replayed)
	}
	// A keyless submission is never deduplicated.
	if v := submit(t, ts1, spec, http.StatusAccepted); v.ID == first.ID {
		t.Fatal("keyless submission replayed a keyed job")
	}

	c1.Close()
	ts1.Close()

	// The dedup table survives the restart: a retry of the original
	// request — the client never saw its response land, say — still
	// converges on the job it already created.
	c2, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(c2.Handler())
	t.Cleanup(func() { c2.Close(); ts2.Close() })
	again, replayed := submitIdem(t, ts2.URL, spec, "key-alpha")
	if again.ID != first.ID || !replayed {
		t.Fatalf("post-restart resubmission: id %s replayed %v, want %s true", again.ID, replayed, first.ID)
	}
	if n := metricValue(t, scrapeMetrics(t, ts2), "dsasimd_cluster_jobs_deduped_total"); n < 1 {
		t.Errorf("jobs_deduped_total = %d, want >= 1", n)
	}
}

func grepLine(s, needle string) string {
	for _, l := range strings.Split(s, "\n") {
		if strings.Contains(l, needle) && !strings.HasPrefix(l, "#") {
			return l
		}
	}
	return "(absent)"
}

// TestClusterMetricsNames pins the cluster metric names as API: panels
// and alerts depend on them, so renames must be deliberate.
func TestClusterMetricsNames(t *testing.T) {
	_, ts := newTestCoordinator(t, Config{LeaseTTL: time.Second})
	m := scrapeMetrics(t, ts)
	for _, name := range []string{
		"dsasimd_cluster_workers_live",
		"dsasimd_cluster_jobs_pending",
		"dsasimd_cluster_worker_inflight",
		"dsasimd_cluster_leases_granted_total",
		"dsasimd_cluster_leases_expired_total",
		"dsasimd_cluster_leases_revoked_total",
		"dsasimd_cluster_takeovers_total",
		"dsasimd_cluster_fenced_writes_total",
		"dsasimd_cluster_heartbeats_rejected_total",
		"dsasimd_cluster_jobs_submitted_total",
		"dsasimd_cluster_jobs_rejected_total",
		"dsasimd_cluster_jobs_deduped_total",
		"dsasimd_cluster_rpc_retries_total",
		"dsasimd_cluster_rpc_timeouts_total",
		"dsasimd_cluster_role",
		"dsasimd_cluster_failovers_total",
		"dsasimd_cluster_replication_seq",
		"dsasimd_cluster_replication_lag_seconds",
		"dsasimd_cluster_replication_rejected_total",
		`dsasimd_cluster_jobs_completed_total{status="ok"}`,
		`dsasimd_cluster_jobs_completed_total{status="degraded"}`,
		`dsasimd_cluster_jobs_completed_total{status="failed"}`,
		"dsasimd_cluster_job_retries_total",
		"dsasimd_cluster_jobs_resumed_total",
		"dsasimd_cluster_policy_takeovers_kept_total",
		"dsasimd_cluster_policy_takeovers_suspended_total",
		"dsasimd_cluster_policy_takeovers_trialed_total",
		`dsasimd_cluster_energy_nanojoules_total{component="front_end"}`,
		`dsasimd_cluster_energy_nanojoules_total{component="scalar"}`,
		`dsasimd_cluster_energy_nanojoules_total{component="caches"}`,
		`dsasimd_cluster_energy_nanojoules_total{component="neon"}`,
		`dsasimd_cluster_energy_nanojoules_total{component="dsa"}`,
		"dsasimd_cluster_job_duration_seconds_bucket",
		"dsasimd_cluster_job_duration_seconds_sum",
		"dsasimd_cluster_job_duration_seconds_count",
		"dsasimd_cluster_job_steps_per_second_bucket",
		"dsasimd_cluster_job_steps_per_second_count",
	} {
		if !strings.Contains(m, name) {
			t.Errorf("metrics missing %q", name)
		}
	}
}
