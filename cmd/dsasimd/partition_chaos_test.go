package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/netchaos"
)

// Partition-chaos knobs. The lease TTL is short enough that a scripted
// partition reliably expires it, and every duration below is phrased
// in TTLs so the schedule scales if the TTL ever changes.
const (
	chaosLeaseTTL = 1500 * time.Millisecond
	chaosJobs     = 5
	// workerChaosSpec is the fault mix each worker's coordinator RPCs
	// run under — every class enabled, rates low enough that the
	// protocol keeps making progress between faults.
	workerChaosSpec = "drop=0.02,timeout=0.02,delay=0.06,duplicate=0.04,reset=0.03,truncate=0.03,errcode=0.03,maxdelay=120ms"
	// clientChaosSpec is the submission/polling path's mix. No timeout
	// class: a stall costs a full client deadline per draw and buys no
	// coverage the worker side doesn't already have.
	clientChaosSpec = "delay=0.10,duplicate=0.08,reset=0.06,truncate=0.06,errcode=0.05,maxdelay=80ms"
)

// chaosBaseSeed reads DSASIMD_CHAOS_SEED, the replay knob: a failing
// run logs the exact value to rerun its fault schedule bit for bit.
func chaosBaseSeed(t *testing.T) int64 {
	env := os.Getenv("DSASIMD_CHAOS_SEED")
	if env == "" {
		return 1
	}
	seed, err := strconv.ParseInt(env, 10, 64)
	if err != nil {
		t.Fatalf("DSASIMD_CHAOS_SEED=%q: %v", env, err)
	}
	return seed
}

// startChaosWorkerProc launches a worker whose coordinator RPCs pass
// through its own seeded fault injector (-chaos) — on top of whatever
// TCP-level damage the test's proxy is doing.
func startChaosWorkerProc(t *testing.T, bin, join, dataDir string, seed int64) *proc {
	t.Helper()
	return startProc(t, bin, false,
		"-worker", "-join", join, "-data", dataDir,
		"-snapshot-every", "50000", "-progress-every", "25000",
		"-chaos", workerChaosSpec, "-chaos-seed", strconv.FormatInt(seed, 10))
}

// TestClusterPartitionChaos is the network-fault robustness proof: a
// coordinator and three workers, each worker's link running through a
// commanded TCP proxy, driven through full partitions, both asymmetric
// partition directions, slow-drip bandwidth, and connection resets —
// while every HTTP exchange (worker RPCs and the test's own
// submissions) additionally suffers seeded drop/delay/duplicate/
// reset/truncate/errcode faults. At the end: zero lost jobs, every
// completion exactly once, every digest bit-identical to the
// single-process reference. The whole schedule derives from one seed;
// a failure logs the replay line.
func TestClusterPartitionChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("partition chaos skipped in -short")
	}
	bin := buildDaemon(t)
	base := chaosBaseSeed(t)
	for _, seed := range []int64{base, base + 101, base + 202} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runPartitionChaos(t, bin, seed)
		})
	}
}

func runPartitionChaos(t *testing.T, bin string, seed int64) {
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("replay this exact fault schedule with: DSASIMD_CHAOS_SEED=%d make partition-chaos", seed)
		}
	})
	dir := t.TempDir()
	source := clusterSource(2_000_000)
	want := referenceDigest(t, source)

	coord := startCoordinatorProc(t, bin, filepath.Join(dir, "coord"), chaosLeaseTTL.String())
	base := "http://" + coord.addr
	shared := sharedDataDir(t, dir)
	if err := os.MkdirAll(shared, 0o755); err != nil {
		t.Fatal(err)
	}

	// Proxy commands are logged to a file under the shared dir, so a
	// CI failure's artifact upload carries the fault timeline next to
	// the checkpoints it produced.
	logFile, err := os.Create(filepath.Join(shared, "netchaos-proxy.log"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = logFile.Close() })
	var logMu sync.Mutex
	plogf := func(format string, args ...any) {
		logMu.Lock()
		fmt.Fprintf(logFile, format+"\n", args...)
		logMu.Unlock()
		t.Logf(format, args...)
	}

	// Three workers, each behind its own commanded proxy.
	proxies := make([]*netchaos.Proxy, 3)
	for i := range proxies {
		p, err := netchaos.NewProxy(coord.addr, plogf)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(p.Close)
		proxies[i] = p
		startChaosWorkerProc(t, bin, "http://"+p.Addr(), shared, seed+int64(i))
	}
	waitClusterReady(t, base, 30*time.Second)

	// The test's own client suffers injected faults too — this is what
	// makes Idempotency-Key retries load-bearing rather than decorative.
	rates, err := netchaos.ParseRates(clientChaosSpec)
	if err != nil {
		t.Fatal(err)
	}
	injector := netchaos.NewInjector(seed+1000, rates, nil, plogf)
	chaotic := &http.Client{Transport: injector, Timeout: 5 * time.Second}

	// Submit every job through the chaotic client under an
	// Idempotency-Key, retrying blindly on any failure: drops, resets
	// and substituted 502s make individual attempts ambiguous, and the
	// key is what keeps the retries from minting twin jobs.
	ids := make([]string, 0, chaosJobs)
	for i := 0; i < chaosJobs; i++ {
		key := fmt.Sprintf("chaos-%d-%d", seed, i)
		id := ""
		for attempt := 0; attempt < 20 && id == ""; attempt++ {
			id = trySubmitIdem(chaotic, base, source, key)
			if id == "" {
				time.Sleep(100 * time.Millisecond)
			}
		}
		if id == "" {
			t.Fatalf("job %d: no submission attempt ever confirmed", i)
		}
		ids = append(ids, id)
	}
	waitAnyRunning(t, base, ids, 30*time.Second)

	rng := rand.New(rand.NewSource(seed))
	victim := func() *netchaos.Proxy { return proxies[rng.Intn(len(proxies))] }

	// Scripted phases: each required topology fault happens at least
	// once per run, by construction rather than by probability.
	//
	// Full partition, held past the lease TTL: the isolated worker's
	// heartbeats time out (their context deadline is a third of the
	// lease), the coordinator expires the lease, survivors take the
	// jobs over, and the worker self-fences and rejoins after the heal.
	p := victim()
	p.Partition(netchaos.PartitionBoth)
	time.Sleep(chaosLeaseTTL*2 + chaosLeaseTTL/2)
	p.Heal()
	chaoticPoll(chaotic, base, ids, 20)

	// Asymmetric, responses vanish: requests are delivered and
	// processed, so a completion can land while its 200 is lost — the
	// ambiguity the worker's bounded retries plus 409-is-final resolve.
	p = victim()
	p.Partition(netchaos.PartitionFromTarget)
	time.Sleep(chaosLeaseTTL)
	p.Heal()
	chaoticPoll(chaotic, base, ids, 20)

	// Asymmetric, requests vanish: the worker hears nothing back and
	// must not trust its half-open link.
	p = victim()
	p.Partition(netchaos.PartitionToTarget)
	time.Sleep(chaosLeaseTTL)
	p.Heal()
	chaoticPoll(chaotic, base, ids, 20)

	// Slow-drip on one link, hard resets on another.
	p = victim()
	p.SlowDrip(2048)
	time.Sleep(chaosLeaseTTL)
	p.Heal()
	victim().Reset()
	chaoticPoll(chaotic, base, ids, 20)

	// Seed-driven rounds on top of the scripted ones.
	for round := 0; round < 4; round++ {
		p := victim()
		switch rng.Intn(4) {
		case 0:
			p.Partition(netchaos.PartitionBoth)
		case 1:
			p.Partition(netchaos.PartitionFromTarget)
		case 2:
			p.Partition(netchaos.PartitionToTarget)
		case 3:
			p.SlowDrip(4096)
		}
		time.Sleep(time.Duration(rng.Intn(int(chaosLeaseTTL))) + chaosLeaseTTL/2)
		p.Heal()
		if rng.Intn(2) == 0 {
			victim().Reset()
		}
		chaoticPoll(chaotic, base, ids, 15)
	}

	// Pump the chaotic client until its injector has demonstrably hit
	// every class the submission path must survive.
	for i := 0; i < 600; i++ {
		counts := injector.Counts()
		if counts[netchaos.FaultDelay] > 0 && counts[netchaos.FaultDuplicate] > 0 &&
			counts[netchaos.FaultReset] > 0 && counts[netchaos.FaultTruncate] > 0 {
			break
		}
		chaoticPoll(chaotic, base, ids, 5)
	}
	for _, class := range []string{netchaos.FaultDelay, netchaos.FaultDuplicate, netchaos.FaultReset, netchaos.FaultTruncate} {
		if injector.Counts()[class] == 0 {
			t.Errorf("client injector never drew %s (counts: %s)", class, injector.CountsLine())
		}
	}

	// Heal everything and let the cluster converge: zero lost jobs,
	// every digest bit-identical to the single-process reference.
	for _, p := range proxies {
		p.Heal()
	}
	waitAllOK(t, base, ids, want, 300*time.Second)

	// Exactly-once admission: despite duplicated and retried
	// submissions, the job table holds exactly the jobs we meant to
	// create — and a deliberate resubmission replays rather than forks.
	if n := countJobs(t, base); n != chaosJobs {
		t.Errorf("job table holds %d jobs, want %d (duplicate submissions must dedup)", n, chaosJobs)
	}
	id, replayed := resubmitIdem(t, base, source, fmt.Sprintf("chaos-%d-0", seed))
	if id != ids[0] || !replayed {
		t.Errorf("resubmission of job 0's key: id %s replayed %v, want %s true", id, replayed, ids[0])
	}

	// A forged heartbeat bounces off the session fence.
	resp, err := http.Post(base+"/cluster/v1/heartbeat", "application/json",
		strings.NewReader(`{"worker":"w9999","session":"forged","seq":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("forged heartbeat: code %d, want 409", resp.StatusCode)
	}

	m := fetchMetrics(t, base)
	if !strings.Contains(m, fmt.Sprintf(`dsasimd_cluster_jobs_completed_total{status="ok"} %d`, chaosJobs)) {
		t.Errorf("metrics: want exactly %d ok completions (exactly-once), got:\n%s",
			chaosJobs, grepMetric(m, "jobs_completed"))
	}
	for _, counter := range []string{
		"dsasimd_cluster_leases_expired_total", // the full partition was detected
		"dsasimd_cluster_rpc_retries_total",    // workers retried through the faults
		"dsasimd_cluster_rpc_timeouts_total",   // blackholed RPCs hit their deadlines
		"dsasimd_cluster_heartbeats_rejected_total",
		"dsasimd_cluster_jobs_deduped_total",
	} {
		if n := parseMetric(t, m, counter); n < 1 {
			t.Errorf("%s = %d, want >= 1", counter, n)
		}
	}
	plogf("netchaos: client injector counts: %s", injector.CountsLine())
}

// trySubmitIdem makes one submission attempt under the key; "" means
// the attempt failed ambiguously and the caller should retry.
func trySubmitIdem(client *http.Client, base, source, key string) string {
	body, _ := json.Marshal(map[string]string{"name": "chaos", "source": source})
	req, err := http.NewRequest("POST", base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return ""
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Idempotency-Key", key)
	resp, err := client.Do(req)
	if err != nil {
		return ""
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return ""
	}
	var v jobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return ""
	}
	return v.ID
}

// resubmitIdem replays a key over the clean client and reports the
// returned job ID and whether the response was marked as a replay.
func resubmitIdem(t *testing.T, base, source, key string) (string, bool) {
	t.Helper()
	body, _ := json.Marshal(map[string]string{"name": "chaos", "source": source})
	req, err := http.NewRequest("POST", base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Idempotency-Key", key)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmit: code %d", resp.StatusCode)
	}
	var v jobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v.ID, resp.Header.Get("Idempotency-Replayed") == "true"
}

// chaoticPoll issues n job reads through the fault-injected client,
// ignoring outcomes: its job is to keep client-side traffic (and
// injector draws) flowing during and between fault phases.
func chaoticPoll(client *http.Client, base string, ids []string, n int) {
	for i := 0; i < n; i++ {
		resp, err := client.Get(base + "/v1/jobs/" + ids[i%len(ids)])
		if err == nil {
			var v jobView
			_ = json.NewDecoder(resp.Body).Decode(&v)
			resp.Body.Close()
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// countJobs reads the job table's size over the clean client.
func countJobs(t *testing.T, base string) int {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs")
	if err != nil {
		t.Fatalf("GET /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	var list struct {
		Jobs []jobView `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	return len(list.Jobs)
}
