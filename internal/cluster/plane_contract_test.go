package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/snapshot"
)

// planeUnderTest is one job plane booted for the contract script.
type planeUnderTest struct {
	ts    *httptest.Server
	drain func()
}

// contractPlane describes one of the two daemons the contract covers.
type contractPlane struct {
	name string
	// full is the /readyz reason while a submission would get 429.
	full string
	// prefix names the plane's job-result metric family.
	prefix string
	// boot starts the plane on stateFile ("" = no persistence) with
	// room for exactly one running and one waiting job.
	boot func(t *testing.T, stateFile string) planeUnderTest
	// section and payload are a literal state file in the format
	// earlier releases wrote (before the two daemons shared one row
	// type): one finished job under Idempotency-Key "restored-key",
	// one ID issued.
	section, payload string
	// epoch is the restored job's fencing epoch as its view shows it.
	epoch uint64
}

const contractRetryAfter = 3 * time.Second

var contractPlanes = []contractPlane{
	{
		name:   "standalone",
		full:   "queue full",
		prefix: "dsasimd_",
		boot: func(t *testing.T, stateFile string) planeUnderTest {
			s, err := server.New(server.Config{Workers: 1, QueueDepth: 1, RetryAfter: contractRetryAfter, StateFile: stateFile, Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(s.Handler())
			drain := func() {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				if err := s.Drain(ctx); err != nil {
					t.Errorf("drain: %v", err)
				}
			}
			t.Cleanup(func() { drain(); ts.Close() })
			return planeUnderTest{ts: ts, drain: drain}
		},
		section: "dsasimd.jobs",
		payload: `{"next_id":2,"jobs":[{"id":"j000001","spec":{"name":"kept","workload":"mm_32x32","config":"scalar"},` +
			`"status":"ok","idem_key":"restored-key","queued":"2026-01-02T03:04:05.000000006Z",` +
			`"result":{"job":"j000001","status":"ok","attempts":1,"wall_ns":1000,"ticks":42,"steps":7,"mem_digest":"00000000deadbeef"}}]}`,
	},
	{
		name:   "coordinator",
		full:   "job table full",
		prefix: "dsasimd_cluster_",
		boot: func(t *testing.T, stateFile string) planeUnderTest {
			c, ts := newTestCoordinator(t, Config{LeaseTTL: 3 * time.Second, MaxJobs: 2, RetryAfter: contractRetryAfter, StateFile: stateFile})
			startWorker(t, ts.URL, t.TempDir(), 1)
			waitReady(t, ts, 10*time.Second)
			return planeUnderTest{ts: ts, drain: c.Close}
		},
		section: "dsasimd.cluster",
		payload: `{"next_job":1,"next_worker":0,"next_epoch":3,"jobs":[{"id":"j000001","spec":{"name":"kept","workload":"mm_32x32","config":"scalar"},` +
			`"status":"ok","epoch":3,"idem_key":"restored-key","queued":"2026-01-02T03:04:05.000000006Z",` +
			`"result":{"job":"j000001","status":"ok","attempts":1,"wall_ns":1000,"ticks":42,"steps":7,"mem_digest":"00000000deadbeef"}}]}`,
		epoch: 3,
	},
}

// contractPost submits a raw body and returns the response (body
// closed) plus the decoded view on 202.
func contractPost(t *testing.T, ts *httptest.Server, body, idemKey string) (*http.Response, server.JobView) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if idemKey != "" {
		req.Header.Set("Idempotency-Key", idemKey)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	var view server.JobView
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
			t.Fatalf("decode view: %v", err)
		}
	}
	return resp, view
}

// listJobs returns GET /v1/jobs.
func listJobs(t *testing.T, ts *httptest.Server) []server.JobView {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatalf("GET /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/jobs: code = %d", resp.StatusCode)
	}
	var list struct {
		Jobs []server.JobView `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	return list.Jobs
}

func checkReady(t *testing.T, ts *httptest.Server, wantCode int, wantReason string) {
	t.Helper()
	code, body := probe(t, ts, "/readyz")
	if code != wantCode || body["reason"] != wantReason {
		t.Errorf("/readyz = %d %q, want %d %q", code, body["reason"], wantCode, wantReason)
	}
}

// waitStatus polls a job until it reaches want ("terminal" = any
// terminal status).
func waitStatus(t *testing.T, ts *httptest.Server, id, want string) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		v := getJob(t, ts, id)
		if v.Status == want || (want == "terminal" && server.Terminal(v.Status)) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s: status %s, want %s", id, v.Status, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestJobPlaneContract runs one script against both job planes — the
// standalone daemon and a coordinator with one in-process worker — so
// an admission or readiness rule cannot hold on one and drift on the
// other: 400 on a bad spec; Idempotency-Key replay before validation;
// CR/LF trimmed from names; the job-result metric family; 429 with a
// jittered Retry-After when full, with /readyz failing for the same
// reason; 503 while draining. It also restores each plane from a
// literal state file in the previous release's format, checks the job
// views survive, and that GET /v1/jobs lists every job in submission
// order with the view GET /v1/jobs/{id} returns.
func TestJobPlaneContract(t *testing.T) {
	for _, pl := range contractPlanes {
		pl := pl
		t.Run(pl.name+"/admission", func(t *testing.T) {
			p := pl.boot(t, "")
			checkReady(t, p.ts, http.StatusOK, "")

			if resp, _ := contractPost(t, p.ts, `{"workload":"no_such_workload"}`, ""); resp.StatusCode != http.StatusBadRequest {
				t.Errorf("bad spec: code %d, want 400", resp.StatusCode)
			}

			resp, first := contractPost(t, p.ts, `{"name":"two\r\nlines","workload":"mm_32x32","config":"scalar"}`, "contract-key")
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit: code %d, want 202", resp.StatusCode)
			}
			if first.Spec.Name != "two  lines" {
				t.Errorf("name = %q, want CR/LF trimmed to %q", first.Spec.Name, "two  lines")
			}
			// The replay answers before validation: a retry whose body
			// no longer validates still converges on the original job.
			resp, again := contractPost(t, p.ts, `{"workload":"no_such_workload"}`, "contract-key")
			if resp.StatusCode != http.StatusAccepted || again.ID != first.ID || resp.Header.Get("Idempotency-Replayed") != "true" {
				t.Errorf("replay: code %d id %s replayed %q, want 202 %s true",
					resp.StatusCode, again.ID, resp.Header.Get("Idempotency-Replayed"), first.ID)
			}
			waitStatus(t, p.ts, first.ID, "terminal")
			m := scrapeMetrics(t, p.ts)
			for _, want := range []string{pl.prefix + `jobs_completed_total{status="ok"} 1`, pl.prefix + "job_duration_seconds_count 1",
				pl.prefix + "jobs_submitted_total 1", pl.prefix + "jobs_deduped_total 1"} {
				if !strings.Contains(m, want+"\n") {
					t.Errorf("metrics missing %q", want)
				}
			}

			// Fill the plane: one job running, one waiting, then 429.
			long := `{"name":"hog","source":` + strconv.Quote(longSource(20_000_000)) + `,"config":"scalar"}`
			resp, hog := contractPost(t, p.ts, long, "")
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("long job: code %d", resp.StatusCode)
			}
			waitStatus(t, p.ts, hog.ID, server.StatusRunning)
			if resp, _ := contractPost(t, p.ts, long, ""); resp.StatusCode != http.StatusAccepted {
				t.Fatalf("waiting job: code %d", resp.StatusCode)
			}
			resp, _ = contractPost(t, p.ts, long, "")
			if resp.StatusCode != http.StatusTooManyRequests {
				t.Fatalf("full plane: code %d, want 429", resp.StatusCode)
			}
			base := int(contractRetryAfter / time.Second)
			if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < base || ra > base+1+base/4 {
				t.Errorf("Retry-After = %q, want an integer in [%d, %d]", resp.Header.Get("Retry-After"), base, base+1+base/4)
			}
			checkReady(t, p.ts, http.StatusServiceUnavailable, pl.full)

			p.drain()
			if resp, _ := contractPost(t, p.ts, `{"workload":"mm_32x32"}`, ""); resp.StatusCode != http.StatusServiceUnavailable {
				t.Errorf("draining: code %d, want 503", resp.StatusCode)
			}
			checkReady(t, p.ts, http.StatusServiceUnavailable, "draining")
		})

		t.Run(pl.name+"/restore", func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "state.dsnp")
			var w snapshot.Writer
			w.Add(pl.section, []byte(pl.payload))
			if err := w.WriteFile(path); err != nil {
				t.Fatal(err)
			}
			ts := pl.boot(t, path).ts

			v := getJob(t, ts, "j000001")
			if v.Status != "ok" || v.Spec.Name != "kept" || v.Spec.Workload != "mm_32x32" || v.Spec.Config != "scalar" ||
				v.Queued != "2026-01-02T03:04:05.000000006Z" || v.Epoch != pl.epoch {
				t.Errorf("restored view: %+v", v)
			}
			if v.Result == nil || v.Result.MemDigest != "00000000deadbeef" || v.Result.Ticks != 42 || v.Result.Steps != 7 {
				t.Errorf("restored result: %+v", v.Result)
			}
			if ev := readDoneEvent(t, ts, "j000001"); ev.Result == nil || ev.Result.MemDigest != "00000000deadbeef" {
				t.Errorf("restored done event: %+v", ev)
			}
			resp, again := contractPost(t, ts, `{"workload":"mm_32x32"}`, "restored-key")
			if again.ID != "j000001" || resp.Header.Get("Idempotency-Replayed") != "true" {
				t.Errorf("restored key: id %q replayed %q, want j000001 true", again.ID, resp.Header.Get("Idempotency-Replayed"))
			}
			_, next := contractPost(t, ts, `{"workload":"mm_32x32","config":"scalar"}`, "")
			if next.ID != "j000002" {
				t.Errorf("next ID after restore = %q, want j000002", next.ID)
			}
			_, last := contractPost(t, ts, `{"workload":"rgb_gray","config":"scalar"}`, "")
			waitStatus(t, ts, next.ID, "terminal")
			waitStatus(t, ts, last.ID, "terminal")
			list := listJobs(t, ts)
			var ids []string
			for _, v := range list {
				ids = append(ids, v.ID)
				if one := getJob(t, ts, v.ID); !reflect.DeepEqual(v, one) {
					t.Errorf("GET /v1/jobs view of %s = %+v, want GET /v1/jobs/%s's %+v", v.ID, v, v.ID, one)
				}
			}
			if want := []string{"j000001", next.ID, last.ID}; !reflect.DeepEqual(ids, want) {
				t.Errorf("GET /v1/jobs lists %v, want %v (submission order)", ids, want)
			}
			if _, err := os.Stat(path + ".bad"); err == nil {
				t.Error("earlier-release state file was quarantined")
			}
		})
	}
}
