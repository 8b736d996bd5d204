package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/runner"
	"repro/internal/server"
)

// clusterSource is the takeover workload: long enough that a worker is
// reliably mid-run when killed, with a digest that depends on the whole
// execution history — so a resumed run can only match the reference by
// actually continuing the interrupted state, not by luck.
func clusterSource(n int) string {
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

// referenceDigest runs the workload in-process — the single-process
// truth every cluster execution must reproduce bit for bit.
func referenceDigest(t *testing.T, source string) string {
	t.Helper()
	spec := server.JobSpec{Name: "ref", Source: source}
	job, err := spec.RunnerJob("ref")
	if err != nil {
		t.Fatal(err)
	}
	rep := runner.Run(context.Background(), []runner.Job{job}, runner.Options{Workers: 1})
	r := rep.Results[0]
	if r.Status != runner.StatusOK {
		t.Fatalf("reference run: %+v", r)
	}
	return server.ResultFromRunner(r).MemDigest
}

// sharedDataDir picks the workers' shared -data directory. With
// DSASIMD_CLUSTER_ARTIFACTS set (CI), checkpoints land under it so a
// failing run's snapshots can be uploaded for postmortem.
func sharedDataDir(t *testing.T, dir string) string {
	t.Helper()
	if env := os.Getenv("DSASIMD_CLUSTER_ARTIFACTS"); env != "" {
		d := filepath.Join(env, t.Name())
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
		return d
	}
	return filepath.Join(dir, "shared")
}

func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "dsasimd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// proc is one daemon child process with its stderr log captured.
type proc struct {
	cmd     *exec.Cmd
	mu      sync.Mutex
	log     []string
	addr    string        // resolved listen address (coordinator only)
	drained chan struct{} // closed once the stderr reader reaches EOF
}

func (p *proc) logText() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.log, "\n")
}

func (p *proc) kill9() { _ = p.cmd.Process.Kill() }

// startProc launches the daemon, scraping "listening on" from stderr
// when waitAddr is set, and keeps the pipe drained either way.
func startProc(t *testing.T, bin string, waitAddr bool, args ...string) *proc {
	t.Helper()
	p := &proc{cmd: exec.Command(bin, args...), drained: make(chan struct{})}
	stderr, err := p.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.cmd.Start(); err != nil {
		t.Fatalf("start %v: %v", args, err)
	}
	t.Cleanup(func() {
		p.kill9()
		_, _ = p.cmd.Process.Wait()
	})
	addrCh := make(chan string, 1)
	go func() {
		defer close(p.drained)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			p.log = append(p.log, line)
			p.mu.Unlock()
			if i := strings.Index(line, "listening on "); i >= 0 {
				select {
				case addrCh <- strings.TrimSpace(line[i+len("listening on "):]):
				default:
				}
			}
		}
	}()
	if waitAddr {
		select {
		case p.addr = <-addrCh:
		case <-time.After(30 * time.Second):
			t.Fatalf("daemon never reported its address; log:\n%s", p.logText())
		}
	}
	return p
}

func startCoordinatorProc(t *testing.T, bin, dataDir, lease string) *proc {
	t.Helper()
	return startProc(t, bin, true,
		"-coordinator", "-addr", "127.0.0.1:0", "-data", dataDir, "-lease", lease)
}

func startWorkerProc(t *testing.T, bin, join, dataDir string) *proc {
	t.Helper()
	return startProc(t, bin, false,
		"-worker", "-join", join, "-data", dataDir,
		"-snapshot-every", "50000", "-progress-every", "25000")
}

type jobView struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	Owner  string `json:"owner"`
	Epoch  uint64 `json:"epoch"`
	Result *struct {
		Status          string `json:"status"`
		MemDigest       string `json:"mem_digest"`
		ResumedFromStep uint64 `json:"resumed_from_step"`
	} `json:"result"`
}

func submitJob(t *testing.T, base, source string) string {
	t.Helper()
	body, _ := json.Marshal(map[string]string{"name": "chaos", "source": source})
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: code = %d", resp.StatusCode)
	}
	var v jobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v.ID
}

func fetchJob(t *testing.T, base, id string) jobView {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatalf("GET job: %v", err)
	}
	defer resp.Body.Close()
	var v jobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func fetchMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	var b bytes.Buffer
	_, _ = b.ReadFrom(resp.Body)
	return b.String()
}

func waitClusterReady(t *testing.T, base string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		if resp, err := http.Get(base + "/readyz"); err == nil {
			code := resp.StatusCode
			resp.Body.Close()
			if code == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("cluster never became ready")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// waitAnyRunning blocks until at least one of the jobs is leased and
// running, so a kill lands mid-execution.
func waitAnyRunning(t *testing.T, base string, ids []string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		for _, id := range ids {
			v := fetchJob(t, base, id)
			if v.Status == "running" && v.Owner != "" {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("no job ever started running")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// waitAllOK polls until every job is terminal, then asserts they all
// finished ok with the reference digest — the zero-lost-jobs check.
func waitAllOK(t *testing.T, base string, ids []string, wantDigest string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		done := 0
		for _, id := range ids {
			v := fetchJob(t, base, id)
			switch v.Status {
			case "ok", "degraded", "failed":
				done++
			}
		}
		if done == len(ids) {
			break
		}
		if time.Now().After(deadline) {
			var states []string
			for _, id := range ids {
				v := fetchJob(t, base, id)
				states = append(states, fmt.Sprintf("%s=%s(owner %s)", id, v.Status, v.Owner))
			}
			t.Fatalf("jobs not terminal after %v: %s", timeout, strings.Join(states, " "))
		}
		time.Sleep(50 * time.Millisecond)
	}
	for _, id := range ids {
		v := fetchJob(t, base, id)
		if v.Status != "ok" {
			t.Errorf("job %s: status %s, want ok", id, v.Status)
			continue
		}
		if v.Result == nil || v.Result.MemDigest != wantDigest {
			t.Errorf("job %s diverged from the single-process reference: %+v", id, v.Result)
		}
	}
}

// TestClusterSmoke is the CI gate (make cluster-smoke): a coordinator
// and two worker processes, one worker SIGKILLed mid-run, and every
// job still completes ok with the single-process digest — no lost
// jobs, no divergence.
func TestClusterSmoke(t *testing.T) {
	bin := buildDaemon(t)
	dir := t.TempDir()
	source := clusterSource(3_000_000)
	want := referenceDigest(t, source)

	coord := startCoordinatorProc(t, bin, filepath.Join(dir, "coord"), "1500ms")
	base := "http://" + coord.addr
	shared := sharedDataDir(t, dir)
	startWorkerProc(t, bin, base, shared)
	victim := startWorkerProc(t, bin, base, shared)
	waitClusterReady(t, base, 30*time.Second)

	// Three jobs across two capacity-1 workers: both workers are busy
	// when the kill lands.
	var ids []string
	for i := 0; i < 3; i++ {
		ids = append(ids, submitJob(t, base, source))
	}
	waitAnyRunning(t, base, ids, 30*time.Second)
	victim.kill9()
	t.Log("SIGKILLed one worker mid-run")

	waitAllOK(t, base, ids, want, 180*time.Second)

	m := fetchMetrics(t, base)
	if !strings.Contains(m, `dsasimd_cluster_jobs_completed_total{status="ok"} 3`) {
		t.Errorf("metrics: want exactly 3 ok completions (exactly-once), got:\n%s",
			grepMetric(m, "jobs_completed"))
	}

	// Graceful coordinator shutdown persists the cluster state.
	if err := coord.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitExit(t, coord, 30*time.Second)
	if !strings.Contains(coord.logText(), "dsasimd: bye") {
		t.Errorf("coordinator log missing clean-shutdown line:\n%s", coord.logText())
	}
}

// TestClusterChaos is the headline robustness proof: three workers,
// repeated SIGKILLs with replacements joining, and at the end every
// job has completed exactly once, bit-identical to the single-process
// reference.
func TestClusterChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run skipped in -short")
	}
	bin := buildDaemon(t)
	dir := t.TempDir()
	source := clusterSource(3_000_000)
	want := referenceDigest(t, source)

	coord := startCoordinatorProc(t, bin, filepath.Join(dir, "coord"), "1200ms")
	base := "http://" + coord.addr
	shared := sharedDataDir(t, dir)
	workers := []*proc{
		startWorkerProc(t, bin, base, shared),
		startWorkerProc(t, bin, base, shared),
		startWorkerProc(t, bin, base, shared),
	}
	waitClusterReady(t, base, 30*time.Second)

	var ids []string
	for i := 0; i < 5; i++ {
		ids = append(ids, submitJob(t, base, source))
	}
	waitAnyRunning(t, base, ids, 30*time.Second)

	// The chaos loop: kill a worker mid-run, start a replacement, let
	// takeover happen, repeat. Round-robin over the fleet so every
	// original worker dies at least once.
	for round := 0; round < 3; round++ {
		victim := workers[round%len(workers)]
		victim.kill9()
		workers[round%len(workers)] = startWorkerProc(t, bin, base, shared)
		t.Logf("chaos round %d: SIGKILLed a worker, started a replacement", round)
		time.Sleep(1500 * time.Millisecond)
	}

	waitAllOK(t, base, ids, want, 300*time.Second)

	m := fetchMetrics(t, base)
	if !strings.Contains(m, `dsasimd_cluster_jobs_completed_total{status="ok"} 5`) {
		t.Errorf("metrics: want exactly 5 ok completions (exactly-once), got:\n%s",
			grepMetric(m, "jobs_completed"))
	}
	for _, counter := range []string{
		"dsasimd_cluster_leases_expired_total",
		"dsasimd_cluster_takeovers_total",
	} {
		if n := parseMetric(t, m, counter); n < 1 {
			t.Errorf("%s = %d, want >= 1 (the kills must have been detected)", counter, n)
		}
	}
}

func grepMetric(m, needle string) string {
	var out []string
	for _, l := range strings.Split(m, "\n") {
		if strings.Contains(l, needle) && !strings.HasPrefix(l, "#") {
			out = append(out, l)
		}
	}
	if len(out) == 0 {
		return "(absent)"
	}
	return strings.Join(out, "\n")
}

func parseMetric(t *testing.T, m, name string) int64 {
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

// waitExit waits for p to exit with its log fully read. Wait closes the
// stderr pipe, so it runs only after the reader has seen EOF; called
// earlier, it can drop the last lines (such as "bye") unread.
func waitExit(t *testing.T, p *proc, timeout time.Duration) {
	t.Helper()
	select {
	case <-p.drained:
	case <-time.After(timeout):
		t.Fatalf("process did not exit; log:\n%s", p.logText())
	}
	if err := p.cmd.Wait(); err != nil {
		t.Fatalf("process exit: %v\n%s", err, p.logText())
	}
}
