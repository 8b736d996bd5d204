package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httputil"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/server"
)

// Coordinator high availability.
//
// A Node is one coordinator of a replicated set. Exactly one node is
// the leader — it runs a real Coordinator (job table, lease protocol,
// dispatch) and pushes the replication stream; the rest are warm
// standbys mirroring its state and answering 503 + X-Dsasimd-Role so
// workers and clients rotate to the leader.
//
// Leadership is arbitrated on the shared data directory the cluster
// already requires (workers hand checkpoints to each other through
// it): claiming term E means creating <claims>/claim.e<E> with
// O_EXCL, which the filesystem makes atomic — at most one node ever
// holds a given term, and terms only grow. Failure detection, by
// contrast, is network-based: the leader pushes a replication batch
// (possibly empty — the liveness signal) to every peer each heartbeat,
// and a standby that has gone unpushed past its jittered patience
// claims the next term and promotes from its mirror. A leader learns
// it was deposed two ways — it scans the claim directory each tick and
// finds a higher term, or one of its pushes comes back 409 from a peer
// that knows one — and steps down to standby either way. Everything it
// might still try to write is fenced: peers 409 its stale-term pushes,
// and the composed assignment epochs (term << 32 | counter) mean the
// new leader's assignments compare strictly above every epoch the old
// one ever minted, so the existing owner/epoch checks reject a deposed
// leader's era end to end, exactly like a zombie worker's.

// Role header and loop-protection header names.
const (
	roleHeader      = "X-Dsasimd-Role"
	forwardedHeader = "X-Dsasimd-Forwarded"
)

// HAConfig parameterizes one node of a replicated coordinator set.
type HAConfig struct {
	// Self is this node's advertised base URL — what its claims carry
	// and what peers and workers reach it at.
	Self string
	// Peers are the other coordinators' base URLs.
	Peers []string
	// ClaimDir is the shared leadership-claim directory (on the same
	// shared filesystem as the checkpoint directory).
	ClaimDir string
	// Standby starts the node as a warm standby even if no leader is
	// reachable; it still promotes itself if none ever appears.
	Standby bool
	// Transport, when set, replaces the HTTP transport for every peer
	// RPC — the netchaos seam. Nil uses http.DefaultTransport.
	Transport http.RoundTripper
}

// Node is one replicated coordinator: a state machine over two roles.
// As leader it owns a live Coordinator and the replication log; as
// standby it owns a mirror and a takeover detector.
type Node struct {
	cfg Config
	ha  HAConfig
	// metrics is shared across role flips (failover and fence counters
	// must not reset when the node changes hats).
	metrics *clusterMetrics
	logf    func(format string, args ...any)

	stopCh   chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	mu          sync.Mutex
	leaderEpoch uint64        // current term: own when leading, followed when standby
	lead        *Coordinator  // non-nil iff leader
	repl        *replicator   // the leader's delta log
	term        chan struct{} // closed on step-down; ends this term's push loops
	peerAck     map[string]time.Time
	sb          *standby // non-nil iff standby
}

// NewNode builds the node, decides its starting role, and runs it.
// A non-standby node first looks for a live leader (highest claim
// whose URL answers readiness as leader) and follows it if found —
// so a restarted ex-leader rejoins as standby instead of fighting —
// and otherwise claims the next term itself.
func NewNode(cfg Config, ha HAConfig) (*Node, error) {
	if ha.Self == "" {
		return nil, fmt.Errorf("cluster: HA node needs a Self URL")
	}
	if ha.ClaimDir == "" {
		return nil, fmt.Errorf("cluster: HA node needs a ClaimDir")
	}
	if err := os.MkdirAll(ha.ClaimDir, 0o755); err != nil {
		return nil, fmt.Errorf("cluster: claim dir: %w", err)
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	peers := make([]string, 0, len(ha.Peers))
	for _, p := range ha.Peers {
		if p = strings.TrimRight(strings.TrimSpace(p), "/"); p != "" && p != ha.Self {
			peers = append(peers, p)
		}
	}
	ha.Peers = peers

	n := &Node{
		cfg:     cfg,
		ha:      ha,
		metrics: newClusterMetrics(),
		logf:    cfg.Logf,
		stopCh:  make(chan struct{}),
	}

	top := readClaims(ha.ClaimDir)
	n.mu.Lock()
	if !ha.Standby && (top.epoch == 0 || top.leader == ha.Self || !n.leaderAlive(top.leader)) {
		if tryClaim(ha.ClaimDir, top.epoch+1, ha.Self) {
			if err := n.becomeLeaderLocked(top.epoch+1, false); err != nil {
				n.mu.Unlock()
				return nil, err
			}
		}
		// Losing the O_EXCL race means another node just claimed the
		// same term: follow it.
	}
	if n.lead == nil {
		n.becomeStandbyLocked(readClaims(ha.ClaimDir))
	}
	n.mu.Unlock()

	n.wg.Add(1)
	go n.run()
	return n, nil
}

// Close stops the node. A leader persists its final state (workers
// keep running; they rotate to whoever leads next).
func (n *Node) Close() {
	n.stopOnce.Do(func() { close(n.stopCh) })
	n.wg.Wait()
	n.mu.Lock()
	c := n.lead
	var payload *clusterState
	var epoch uint64
	if c == nil && n.sb != nil && n.sb.applied > 0 {
		payload, epoch = n.sb.export(), n.sb.leaderEpoch
	}
	n.mu.Unlock()
	if c != nil {
		c.Close()
	} else if payload != nil {
		if err := saveStandbyState(n.cfg.StateFile, payload, epoch); err != nil {
			n.logf("dsasimd-ha: saving standby state: %v", err)
		}
	}
	n.logf("dsasimd-ha: node %s closed", n.ha.Self)
}

// Role reports "leader" or "standby".
func (n *Node) Role() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.lead != nil {
		return "leader"
	}
	return "standby"
}

// Leader returns the live Coordinator when this node leads.
func (n *Node) Leader() *Coordinator {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.lead
}

// run is the role loop: each tick a leader checks it has not been
// superseded on the claim directory, and a standby follows new claims
// or — after its patience with an unheard-from leader runs out —
// attempts a takeover.
func (n *Node) run() {
	defer n.wg.Done()
	tick := n.cfg.LeaseTTL / 4
	if tick > 250*time.Millisecond {
		tick = 250 * time.Millisecond
	}
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-n.stopCh:
			return
		case <-t.C:
			n.tick()
		}
	}
}

func (n *Node) tick() {
	top := readClaims(n.ha.ClaimDir)
	n.mu.Lock()
	if n.lead != nil {
		if top.epoch > n.leaderEpoch {
			n.stepDownLocked(top, "superseded on claim directory")
		}
		n.mu.Unlock()
		return
	}
	sb := n.sb
	if top.epoch > sb.leaderEpoch {
		// A newer term was claimed; follow its leader.
		n.logf("dsasimd-ha: %s following term %d (leader %s)", n.ha.Self, top.epoch, top.leader)
		sb.adopt(top.epoch, top.leader)
		n.leaderEpoch = top.epoch
		n.mu.Unlock()
		return
	}
	quiet := time.Since(sb.lastPush)
	n.mu.Unlock()
	if quiet > sb.threshold {
		n.tryTakeover()
	}
}

// tryTakeover claims the next term above everything on the claim
// directory and promotes. Losing the O_EXCL race is fine: the winner's
// claim is adopted on the next tick.
func (n *Node) tryTakeover() {
	top := readClaims(n.ha.ClaimDir)
	target := top.epoch + 1
	if !tryClaim(n.ha.ClaimDir, target, n.ha.Self) {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.lead != nil {
		return
	}
	n.logf("dsasimd-ha: %s lost its leader (term %d quiet %.1fs); taking over at term %d",
		n.ha.Self, n.sb.leaderEpoch, time.Since(n.sb.lastPush).Seconds(), target)
	if err := n.becomeLeaderLocked(target, true); err != nil {
		n.logf("dsasimd-ha: takeover at term %d failed: %v", target, err)
		n.becomeStandbyLocked(claim{epoch: target, leader: n.ha.Self})
	}
}

// becomeLeaderLocked promotes this node: build a Coordinator for term
// epoch from the best available state — the replicated mirror when it
// has one, else the node's own state file — and start a push loop per
// peer. The caller must hold n.mu.
func (n *Node) becomeLeaderLocked(epoch uint64, failover bool) error {
	var preload *clusterState
	src := "state file"
	if n.sb != nil && n.sb.applied > 0 {
		preload, src = n.sb.export(), fmt.Sprintf("replicated mirror (seq %d)", n.sb.lastSeq)
	}
	repl := newReplicator()
	cfg := n.cfg
	cfg.metrics = n.metrics
	cfg.leaderEpoch = epoch
	cfg.preload = preload
	cfg.repl = repl
	c, err := NewCoordinator(cfg)
	if err != nil {
		return err
	}
	n.lead, n.repl, n.leaderEpoch, n.sb = c, repl, epoch, nil
	n.term = make(chan struct{})
	n.peerAck = make(map[string]time.Time, len(n.ha.Peers))
	now := time.Now()
	for _, p := range n.ha.Peers {
		n.peerAck[p] = now
		n.wg.Add(1)
		go n.pushLoop(p, c, repl, n.term)
	}
	if failover {
		n.metrics.onFailover()
	}
	n.logf("dsasimd-ha: %s leading at term %d (from %s, %d peer(s))", n.ha.Self, epoch, src, len(n.ha.Peers))
	return nil
}

// becomeStandbyLocked (re)enters the standby role following cl.
func (n *Node) becomeStandbyLocked(cl claim) {
	n.sb = newStandby(cl.epoch, cl.leader, n.cfg.LeaseTTL)
	n.leaderEpoch = cl.epoch
	n.lead, n.repl = nil, nil
}

// stepDownLocked deposes this node's leadership in favor of cl: end
// the push loops, retire the coordinator (it persists its last state,
// every running attempt keeps going under workers that will simply
// rotate), and become a standby that resyncs from the new leader. The
// caller must hold n.mu.
func (n *Node) stepDownLocked(cl claim, why string) {
	c := n.lead
	close(n.term)
	n.becomeStandbyLocked(cl)
	n.logf("dsasimd-ha: %s deposed at term %d (%s); following term %d (leader %s)",
		n.ha.Self, n.leaderEpochOf(c), why, cl.epoch, cl.leader)
	// Close blocks on the coordinator's loop goroutine; do it off-lock.
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		c.Close()
	}()
}

func (n *Node) leaderEpochOf(c *Coordinator) uint64 {
	if c == nil {
		return 0
	}
	return c.leaderEpoch
}

// leaderAlive probes whether url currently answers as a leader.
func (n *Node) leaderAlive(url string) bool {
	if url == "" {
		return false
	}
	hc := &http.Client{Transport: n.ha.Transport, Timeout: time.Second}
	resp, err := hc.Get(url + "/readyz")
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.Header.Get(roleHeader) == "leader"
}

// pushLoop replicates one term's stream to one peer: the unsent suffix
// of the delta log each heartbeat (instantly when the log wakes it,
// empty when there is nothing — the liveness push), or a full snapshot
// when the peer needs catch-up. A 409 means the peer knows a newer
// term: this leader is deposed and steps down.
func (n *Node) pushLoop(peer string, c *Coordinator, repl *replicator, term chan struct{}) {
	defer n.wg.Done()
	hc := &http.Client{Transport: n.ha.Transport}
	interval := c.cfg.LeaseTTL / 3
	if interval < 5*time.Millisecond {
		interval = 5 * time.Millisecond
	}
	timeout := interval
	if timeout < 100*time.Millisecond {
		timeout = 100 * time.Millisecond
	}
	hdr := replicateHeader{LeaderEpoch: c.leaderEpoch, Leader: n.ha.Self}
	var acked uint64
	needSnap := true
	for {
		select {
		case <-term:
			return
		case <-n.stopCh:
			return
		case <-time.After(interval):
		case <-repl.wake():
		}

		var recs []repRecord
		if !needSnap {
			var ok bool
			recs, ok = repl.since(acked)
			if !ok {
				needSnap = true // fell off the bounded tail
			}
		}
		if needSnap {
			recs = []repRecord{c.replicaSnapshot()}
		}
		body, err := encodeReplicateBatch(hdr, recs)
		if err != nil {
			n.logf("dsasimd-ha: encoding batch for %s: %v", peer, err)
			continue
		}
		code, resp, err := postReplicateBody(hc, peer, body, timeout)
		switch {
		case err != nil:
			continue // unreachable peer: retry next heartbeat
		case code == http.StatusConflict:
			n.deposedByPeer(c, peer)
			return
		case code == http.StatusOK && resp != nil:
			acked = resp.LastSeq
			needSnap = resp.NeedSnapshot
			n.mu.Lock()
			if n.peerAck != nil {
				n.peerAck[peer] = time.Now()
			}
			n.mu.Unlock()
		}
	}
}

// deposedByPeer handles a 409 on the push path: some peer holds a
// newer term. The claim directory names it.
func (n *Node) deposedByPeer(c *Coordinator, peer string) {
	top := readClaims(n.ha.ClaimDir)
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.lead != c {
		return // already stepped down (claim scan or another push)
	}
	if top.epoch <= c.leaderEpoch {
		// The peer knows a term the shared directory does not show yet;
		// follow an anonymous higher term and let pushes identify it.
		top = claim{epoch: c.leaderEpoch + 1}
	}
	n.stepDownLocked(top, fmt.Sprintf("push fenced by %s", peer))
}

// postReplicateBody ships one batch and decodes the ack.
func postReplicateBody(hc *http.Client, peer string, body []byte, timeout time.Duration) (int, *ReplicateResponse, error) {
	req, err := http.NewRequest(http.MethodPost, peer+"/cluster/v1/replicate", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	cl := *hc
	cl.Timeout = timeout
	resp, err := cl.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil, nil
	}
	var ack ReplicateResponse
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, &ack, nil
}

// handleReplicate is the standby side of the stream — and the fence. A
// batch under a term older than this node's (or equal, while this node
// itself leads that term) is a deposed or forged leader writing: 409.
// A batch under a newer term deposes this node if it was leading.
func (n *Node) handleReplicate(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 64<<20))
	if err != nil {
		server.HTTPError(w, http.StatusBadRequest, "reading batch: "+err.Error())
		return
	}
	hdr, recs, err := decodeReplicateBatch(body)
	if err != nil {
		// Truncated or bit-flipped in flight: reject whole; the leader
		// resends from the unacknowledged watermark.
		server.HTTPError(w, http.StatusBadRequest, "bad batch: "+err.Error())
		return
	}
	n.mu.Lock()
	if hdr.LeaderEpoch < n.leaderEpoch || (n.lead != nil && hdr.LeaderEpoch == n.leaderEpoch) {
		cur := n.leaderEpoch
		n.mu.Unlock()
		n.metrics.onReplicationReject()
		server.WriteJSON(w, http.StatusConflict, map[string]any{
			"error": "stale leadership term: writes fenced", "term": cur,
		})
		return
	}
	if n.lead != nil {
		// A newer leader is speaking directly to us: deposed.
		n.stepDownLocked(claim{epoch: hdr.LeaderEpoch, leader: hdr.Leader}, "push from newer term")
	}
	sb := n.sb
	if hdr.LeaderEpoch > sb.leaderEpoch {
		sb.adopt(hdr.LeaderEpoch, hdr.Leader)
		n.leaderEpoch = hdr.LeaderEpoch
	}
	if sb.leader == "" {
		sb.leader = hdr.Leader
	}
	before := sb.applied
	sb.apply(recs)
	sb.lastPush = time.Now()
	resp := ReplicateResponse{LastSeq: sb.lastSeq, NeedSnapshot: !sb.synced}
	var payload *clusterState
	var epoch uint64
	if sb.applied != before {
		payload, epoch = sb.export(), sb.leaderEpoch
	}
	n.mu.Unlock()

	if payload != nil {
		// Persist the mirror off-lock: it is the node's best restart
		// state, and failures only degrade cold-start freshness.
		if err := saveStandbyState(n.cfg.StateFile, payload, epoch); err != nil {
			n.logf("dsasimd-ha: saving standby state: %v", err)
		}
	}
	server.WriteJSON(w, http.StatusOK, resp)
}

// Handler returns the node's HTTP surface: the public job API (served
// when leading, reverse-proxied to the leader when standing by), the
// worker lease protocol (leader only — standbys answer 503 so workers
// rotate), role-aware readiness, and the replication endpoint.
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/", n.public)
	mux.HandleFunc("GET /metrics", n.handleMetrics)
	mux.HandleFunc("GET /healthz", n.handleHealth)
	mux.HandleFunc("GET /readyz", n.handleReady)
	mux.HandleFunc("/cluster/v1/", n.workerEP)
	mux.HandleFunc("POST /cluster/v1/replicate", n.handleReplicate)
	return mux
}

// public serves the job API from the live coordinator, or — on a
// standby — forwards to the known leader so clients that landed on the
// wrong node still get an answer.
func (n *Node) public(w http.ResponseWriter, r *http.Request) {
	if c := n.Leader(); c != nil {
		c.Handler().ServeHTTP(w, r)
		return
	}
	n.proxyToLeader(w, r)
}

// workerEP serves the lease protocol on the leader and refuses with
// 503 + role on a standby. 503 — not 409 — on purpose: 409 makes a
// worker self-fence (checkpoint, unwind, rejoin fresh), which would
// needlessly restart its jobs just because it polled the wrong node;
// 503 makes it rotate endpoints and carry on.
func (n *Node) workerEP(w http.ResponseWriter, r *http.Request) {
	if c := n.Leader(); c != nil {
		c.Handler().ServeHTTP(w, r)
		return
	}
	n.standbyRefuse(w)
}

// proxyToLeader forwards one public request to the current leader,
// streaming (SSE flushes immediately) and loop-guarded: a request that
// already went through one standby is refused, not bounced again.
func (n *Node) proxyToLeader(w http.ResponseWriter, r *http.Request) {
	n.mu.Lock()
	target := ""
	if n.sb != nil {
		target = n.sb.leader
	}
	n.mu.Unlock()
	if target == "" || target == n.ha.Self || r.Header.Get(forwardedHeader) != "" {
		n.standbyRefuse(w)
		return
	}
	u, err := url.Parse(target)
	if err != nil {
		n.standbyRefuse(w)
		return
	}
	rp := httputil.NewSingleHostReverseProxy(u)
	rp.Transport = n.ha.Transport
	rp.FlushInterval = -1
	director := rp.Director
	rp.Director = func(req *http.Request) {
		director(req)
		req.Header.Set(forwardedHeader, n.ha.Self)
	}
	rp.ErrorHandler = func(w http.ResponseWriter, r *http.Request, err error) {
		n.standbyRefuse(w)
	}
	rp.ServeHTTP(w, r)
}

// standbyRefuse is the standby's answer on endpoints only a leader
// serves: 503 with the role header (and a leader hint when known), so
// callers rotate instead of treating it as a fence.
func (n *Node) standbyRefuse(w http.ResponseWriter) {
	n.mu.Lock()
	leader := ""
	if n.sb != nil {
		leader = n.sb.leader
	}
	n.mu.Unlock()
	w.Header().Set(roleHeader, "standby")
	server.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{
		"error": "standby: not leading", "leader": leader,
	})
}

// handleHealth is liveness only: a standby is every bit as alive as a
// leader. Readiness is where roles show.
func (n *Node) handleHealth(w http.ResponseWriter, r *http.Request) {
	if c := n.Leader(); c != nil {
		c.Handler().ServeHTTP(w, r)
		return
	}
	server.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReady: a leader answers for the cluster (draining, job table
// full, workers live?); a standby is never ready to take traffic — 503
// with the role header and the leader's URL as the hint. Both label
// their role; clients and the leader-liveness probe key off it.
func (n *Node) handleReady(w http.ResponseWriter, r *http.Request) {
	if c := n.Leader(); c != nil {
		w.Header().Set(roleHeader, "leader")
		c.Handler().ServeHTTP(w, r)
		return
	}
	n.mu.Lock()
	leader := ""
	if n.sb != nil {
		leader = n.sb.leader
	}
	n.mu.Unlock()
	w.Header().Set(roleHeader, "standby")
	server.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{
		"status": "unready", "reason": "standby", "leader": leader,
	})
}

func (n *Node) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, n.metricsText())
}

// metricsText renders the node's exposition: the coordinator's gauges
// with push-loop staleness when leading, the mirror's view when not.
func (n *Node) metricsText() string {
	n.mu.Lock()
	c := n.lead
	var g clusterGauges
	if c == nil {
		sb := n.sb
		pending := 0
		for _, id := range sb.order {
			if pj := sb.jobs[id]; pj.Status == server.StatusQueued && pj.Owner == "" {
				pending++
			}
		}
		g = clusterGauges{
			workersLive: len(sb.workers),
			jobsPending: pending,
			inflight:    map[string]int{},
			role:        0,
			replSeq:     sb.lastSeq,
			replLag:     time.Since(sb.lastPush).Seconds(),
		}
		n.mu.Unlock()
		return n.metrics.render(g)
	}
	var oldest time.Duration
	for _, at := range n.peerAck {
		if lag := time.Since(at); lag > oldest {
			oldest = lag
		}
	}
	n.mu.Unlock()
	g = c.gaugesSnapshot()
	g.replLag = oldest.Seconds()
	return n.metrics.render(g)
}

// claim is one leadership term on the shared directory.
type claim struct {
	epoch  uint64
	leader string
}

// claimBody is the claim file's JSON payload — a hint, not the truth:
// the term is authoritative from the *filename* (written atomically by
// O_EXCL create), so a reader racing the winner's body write sees an
// anonymous claim, never a wrong one.
type claimBody struct {
	Epoch  uint64 `json:"epoch"`
	Leader string `json:"leader"`
	At     string `json:"at"`
}

const claimPrefix = "claim.e"

func claimPath(dir string, epoch uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016x", claimPrefix, epoch))
}

// tryClaim atomically claims leadership term epoch: O_EXCL creation
// means at most one node in the cluster ever wins a given term.
func tryClaim(dir string, epoch uint64, leader string) bool {
	f, err := os.OpenFile(claimPath(dir, epoch), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return false
	}
	_ = json.NewEncoder(f).Encode(claimBody{Epoch: epoch, Leader: leader, At: time.Now().UTC().Format(time.RFC3339Nano)})
	_ = f.Sync()
	_ = f.Close()
	return true
}

// readClaims returns the highest claim on dir (zero value when none).
func readClaims(dir string) claim {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return claim{}
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), claimPrefix) {
			names = append(names, e.Name())
		}
	}
	// Hex-padded names sort lexicographically by term.
	sort.Strings(names)
	for i := len(names) - 1; i >= 0; i-- {
		epoch, err := strconv.ParseUint(strings.TrimPrefix(names[i], claimPrefix), 16, 64)
		if err != nil {
			continue
		}
		best := claim{epoch: epoch}
		if b, err := os.ReadFile(filepath.Join(dir, names[i])); err == nil {
			var body claimBody
			if json.Unmarshal(b, &body) == nil {
				best.leader = body.Leader
			}
		}
		return best
	}
	return claim{}
}
