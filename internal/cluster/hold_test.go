package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/server"
)

// wakeBound is how soon a held heartbeat must deliver an assignment
// after the event that made it: far below any hold limit used here, so
// only a wake, never the limit, can meet it.
const wakeBound = 100 * time.Millisecond

// heldAnswer is a heartbeat's answer.
type heldAnswer struct {
	resp HeartbeatResponse
	code int
}

// postHeartbeat sends one heartbeat over raw HTTP; safe off the test
// goroutine.
func postHeartbeat(url string, req HeartbeatRequest) (HeartbeatResponse, int, error) {
	var out HeartbeatResponse
	body, err := json.Marshal(req)
	if err != nil {
		return out, 0, err
	}
	resp, err := http.Post(url+"/cluster/v1/heartbeat", "application/json", bytes.NewReader(body))
	if err != nil {
		return out, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		err = json.NewDecoder(resp.Body).Decode(&out)
	}
	return out, resp.StatusCode, err
}

// holdHeartbeat sends f's next heartbeat from another goroutine and
// returns once c has accepted it — with nothing to deliver, it is then
// held. The answer arrives on the returned channel.
func holdHeartbeat(t *testing.T, c *Coordinator, f *fakeWorker, running ...RunningJob) <-chan heldAnswer {
	t.Helper()
	f.seq++
	req := HeartbeatRequest{Worker: f.id, Session: f.session, Seq: f.seq, Running: running}
	ch := make(chan heldAnswer, 1)
	go func() {
		resp, code, err := postHeartbeat(f.url, req)
		if err != nil {
			t.Errorf("held heartbeat seq %d: %v", req.Seq, err)
		}
		ch <- heldAnswer{resp: resp, code: code}
	}()
	waitFor(t, 5*time.Second, "heartbeat accepted", func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		we := c.workers[f.id]
		return we != nil && we.lastSeq >= req.Seq
	})
	return ch
}

// awaitStart receives a held heartbeat's answer and requires it to
// carry exactly a start for job, within wakeBound of since.
func awaitStart(t *testing.T, ch <-chan heldAnswer, since time.Time, job string) Assignment {
	t.Helper()
	a := <-ch
	if took := time.Since(since); took > wakeBound {
		t.Errorf("held heartbeat answered %v after the assignment, want within %v", took, wakeBound)
	}
	if a.code != http.StatusOK || len(a.resp.Start) != 1 || a.resp.Start[0].Job != job || len(a.resp.Stop) != 0 {
		t.Fatalf("held heartbeat: code %d delta %+v, want 200 with exactly a start for %s", a.code, a.resp, job)
	}
	return a.resp.Start[0]
}

// TestHeartbeatHold pins the long-poll: a heartbeat with nothing to
// deliver is held, an assignment for its worker releases it at once
// (from admission, from a completion that frees a slot, and on a lease
// restored after a restart), a completion that beats every heartbeat
// still shows the job running first, an idle hold answers inside the
// worker's deadline without ever letting the lease lapse, either side's
// Close releases it, and replayed or superseded heartbeats are never
// held.
func TestHeartbeatHold(t *testing.T) {
	spec := server.JobSpec{Workload: "mm_32x32", Config: "scalar"}

	t.Run("assignment wakes", func(t *testing.T) {
		c, ts := newTestCoordinator(t, Config{LeaseTTL: 3 * time.Second})
		f := joinFake(t, ts.URL, 1)

		ch := holdHeartbeat(t, c, f)
		at := time.Now()
		first := submit(t, ts, spec, http.StatusAccepted).ID
		a := awaitStart(t, ch, at, first)

		// The only slot is taken: a second job waits, and the heartbeat
		// reporting the first running is held until the first completes.
		second := submit(t, ts, spec, http.StatusAccepted).ID
		ch = holdHeartbeat(t, c, f, RunningJob{Job: first, Epoch: a.Epoch})
		at = time.Now()
		if code := f.complete(first, a.Epoch, server.ResultJSON{Job: first, Status: "ok"}); code != http.StatusOK {
			t.Fatalf("complete %s: code %d", first, code)
		}
		b := awaitStart(t, ch, at, second)

		// The second job's result arrives before any heartbeat reports
		// it: the completion dates its start by the attempt's wall time
		// and publishes running before done.
		c.mu.Lock()
		events, cancel := c.plane.Get(second).Events.Subscribe()
		c.mu.Unlock()
		defer cancel()
		res := server.ResultJSON{Job: second, Status: "ok", WallNS: int64(time.Millisecond)}
		if code := f.complete(second, b.Epoch, res); code != http.StatusOK {
			t.Fatalf("complete %s: code %d", second, code)
		}
		for _, want := range []string{server.StatusRunning, "ok"} {
			select {
			case ev := <-events:
				if ev.Status != want {
					t.Errorf("event %+v, want status %s", ev, want)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("no %s event", want)
			}
		}
		v := getJob(t, ts, second)
		q, s, fin := parseTime(t, v.Queued), parseTime(t, v.Started), parseTime(t, v.Finished)
		if s.Before(q) || fin.Before(s) {
			t.Errorf("job %s: queued %s started %s finished %s, want them in order", second, v.Queued, v.Started, v.Finished)
		}
	})

	t.Run("idle answers in time", func(t *testing.T) {
		const ttl = 600 * time.Millisecond
		_, ts := newTestCoordinator(t, Config{LeaseTTL: ttl})
		f := joinFake(t, ts.URL, 1)
		for end := time.Now().Add(10 * ttl); time.Now().Before(end); {
			f.seq++
			start := time.Now()
			resp, code, err := postHeartbeat(f.url, HeartbeatRequest{Worker: f.id, Session: f.session, Seq: f.seq})
			took := time.Since(start)
			if err != nil || code != http.StatusOK {
				t.Fatalf("heartbeat seq %d after %v: code %d err %v (the lease lapsed?)", f.seq, took, code, err)
			}
			if took < ttl/6 || took >= ttl/3 {
				t.Errorf("idle heartbeat seq %d answered after %v, want held for [%v, %v)", f.seq, took, ttl/6, ttl/3)
			}
			if len(resp.Start)+len(resp.Stop) != 0 {
				t.Errorf("idle heartbeat delivered %+v", resp)
			}
		}
		if n := metricValue(t, scrapeMetrics(t, ts), "dsasimd_cluster_leases_expired_total"); n != 0 {
			t.Errorf("leases_expired_total = %d under back-to-back held heartbeats, want 0", n)
		}
	})

	t.Run("restored lease wakes", func(t *testing.T) {
		cfg := Config{LeaseTTL: 3 * time.Second, StateFile: filepath.Join(t.TempDir(), "cluster.dsnp"), Logf: t.Logf}
		c1, err := NewCoordinator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ts1 := httptest.NewServer(c1.Handler())
		f := joinFake(t, ts1.URL, 1)
		c1.Close()
		ts1.Close()

		c2, ts2 := newTestCoordinator(t, cfg)
		f.url = ts2.URL
		ch := holdHeartbeat(t, c2, f)
		at := time.Now()
		id := submit(t, ts2, spec, http.StatusAccepted).ID
		awaitStart(t, ch, at, id)
	})

	t.Run("close releases", func(t *testing.T) {
		const ttl = 3 * time.Second
		c, err := NewCoordinator(Config{LeaseTTL: ttl, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(c.Handler())
		f := joinFake(t, ts.URL, 1)
		ch := holdHeartbeat(t, c, f)
		at := time.Now()
		c.Close()
		ts.Close()
		if took := time.Since(at); took > ttl/12 {
			t.Errorf("Close and server shutdown took %v with a heartbeat held, want under %v (half the hold limit)", took, ttl/12)
		}
		if a := <-ch; a.code != http.StatusOK {
			t.Errorf("heartbeat held across Close: code %d, want 200", a.code)
		}
	})

	t.Run("worker close cancels", func(t *testing.T) {
		const ttl = 3 * time.Second
		c, ts := newTestCoordinator(t, Config{LeaseTTL: ttl})
		w := NewWorker(WorkerConfig{Coordinator: ts.URL, SnapshotDir: t.TempDir(), Logf: t.Logf})
		done := make(chan struct{})
		go func() { w.Run(); close(done) }()
		waitFor(t, 10*time.Second, "worker heartbeat accepted", func() bool {
			c.mu.Lock()
			defer c.mu.Unlock()
			for _, we := range c.workers {
				return we.lastSeq > 0
			}
			return false
		})
		at := time.Now()
		w.Close()
		<-done
		if took := time.Since(at); took > ttl/12 {
			t.Errorf("Worker.Close took %v with its heartbeat held, want under %v (half the hold limit)", took, ttl/12)
		}
	})

	t.Run("replays and superseded", func(t *testing.T) {
		c, ts := newTestCoordinator(t, Config{LeaseTTL: 3 * time.Second})
		f := joinFake(t, ts.URL, 1)
		older := holdHeartbeat(t, c, f)
		stale := f.seq
		for _, seq := range []uint64{stale, stale - 1} {
			start := time.Now()
			if _, code := f.heartbeatRaw(HeartbeatRequest{Worker: f.id, Session: f.session, Seq: seq}); code != http.StatusConflict {
				t.Errorf("replayed heartbeat seq %d: code %d, want 409", seq, code)
			}
			if took := time.Since(start); took > wakeBound {
				t.Errorf("replayed heartbeat seq %d answered after %v: it was held", seq, took)
			}
		}

		// A newer heartbeat supersedes the held one. One assignment
		// releases both: the newer delivers it, the older nothing.
		newer := holdHeartbeat(t, c, f)
		at := time.Now()
		id := submit(t, ts, spec, http.StatusAccepted).ID
		awaitStart(t, newer, at, id)
		if a := <-older; a.code != http.StatusOK || len(a.resp.Start)+len(a.resp.Stop) != 0 {
			t.Errorf("superseded heartbeat: code %d delta %+v, want 200 delivering nothing", a.code, a.resp)
		}
		start := time.Now()
		if _, code := f.heartbeatRaw(HeartbeatRequest{Worker: f.id, Session: f.session, Seq: f.seq}); code != http.StatusConflict {
			t.Errorf("replay of the superseding heartbeat: code %d, want 409", code)
		}
		if took := time.Since(start); took > wakeBound {
			t.Errorf("replay of the superseding heartbeat answered after %v: it was held", took)
		}
	})
}

// heartbeatLog is a WorkerConfig.Transport that records when each
// heartbeat was sent.
type heartbeatLog struct {
	mu    sync.Mutex
	sends []time.Time
}

func (h *heartbeatLog) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.URL.Path == "/cluster/v1/heartbeat" {
		h.mu.Lock()
		h.sends = append(h.sends, time.Now())
		h.mu.Unlock()
	}
	return http.DefaultTransport.RoundTrip(r)
}

// idleRate counts the heartbeats sent over window, from now.
func (h *heartbeatLog) idleRate(window time.Duration) int {
	from := time.Now()
	time.Sleep(window)
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	for _, at := range h.sends {
		if !at.Before(from) && at.Before(from.Add(window)) {
			n++
		}
	}
	return n
}

// TestWorkerPacing pins the worker's side of the long-poll with a real
// Worker: a job reaches running within one round trip of its
// assignment, and a worker with nothing to launch sends at most one
// heartbeat per sixth of the lease, whether the coordinator holds its
// heartbeats or answers every one at once, empty or with a stop.
func TestWorkerPacing(t *testing.T) {
	const ttl = 3 * time.Second
	const window = 3 * time.Second
	maxIdle := int(window/(ttl/6)) + 1

	t.Run("coordinator", func(t *testing.T) {
		t.Parallel()
		_, ts := newTestCoordinator(t, Config{LeaseTTL: ttl})
		hbs := &heartbeatLog{}
		runWorker(t, WorkerConfig{Coordinator: ts.URL, SnapshotDir: t.TempDir(), Transport: hbs})
		waitReady(t, ts, 10*time.Second)

		spec := server.JobSpec{Name: "paced", Source: longSource(20_000)}
		for i := 0; i < 5; i++ {
			v := waitTerminal(t, ts, submit(t, ts, spec, http.StatusAccepted).ID, 60*time.Second)
			q, s, f := parseTime(t, v.Queued), parseTime(t, v.Started), parseTime(t, v.Finished)
			if s.Before(q) || f.Before(s) {
				t.Errorf("job %s: queued %s started %s finished %s, want them in order", v.ID, v.Queued, v.Started, v.Finished)
			}
			if d := s.Sub(q); d > 200*time.Millisecond {
				t.Errorf("job %s reached running %v after admission, want within 200ms", v.ID, d)
			}
		}
		if n := hbs.idleRate(window); n > maxIdle {
			t.Errorf("idle worker sent %d heartbeats in %v, want at most %d", n, window, maxIdle)
		}
	})

	for name, answer := range map[string]HeartbeatResponse{
		"answered at once":   {LeaseTTLMS: ttl.Milliseconds()},
		"stopped every time": {LeaseTTLMS: ttl.Milliseconds(), Stop: []string{"j000001"}},
	} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/cluster/v1/join" {
					server.WriteJSON(w, http.StatusOK, JoinResponse{Worker: "w0001", Session: "s", LeaseTTLMS: ttl.Milliseconds()})
					return
				}
				server.WriteJSON(w, http.StatusOK, answer)
			}))
			t.Cleanup(stub.Close)
			hbs := &heartbeatLog{}
			runWorker(t, WorkerConfig{Coordinator: stub.URL, SnapshotDir: t.TempDir(), Transport: hbs})
			waitFor(t, 10*time.Second, "first heartbeat", func() bool {
				hbs.mu.Lock()
				defer hbs.mu.Unlock()
				return len(hbs.sends) > 0
			})
			if n := hbs.idleRate(window); n > maxIdle || n < 2 {
				t.Errorf("worker sent %d heartbeats in %v to a coordinator that answers %+v at once, want 2 to %d", n, window, answer, maxIdle)
			}
		})
	}
}

func parseTime(t *testing.T, s string) time.Time {
	t.Helper()
	at, err := time.Parse(time.RFC3339Nano, s)
	if err != nil {
		t.Fatalf("timestamp %q: %v", s, err)
	}
	return at
}
