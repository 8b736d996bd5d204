package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// The job plane.
//
// A job plane is the job table plus everything clients see of it: the
// admission contract, the job views, the public routes and the
// job-result metrics. The standalone daemon (Server) and the cluster
// coordinator each run one. What differs between them — where an
// admitted job goes, how much room is left, the daemon's own reason
// not to be ready — comes in through Hooks.

// Job is one job's record in a plane's table. The owning daemon's
// mutex guards every field; Events has its own lock.
type Job struct {
	ID     string
	Spec   JobSpec
	Status string
	// Owner/Epoch are the coordinator's lease on the job: the worker
	// that may write its results and the fencing token those writes
	// must carry. Owner "" means unassigned; Epoch then remembers the
	// last assignment, so a reassignment always bumps past it. The
	// standalone daemon leaves both zero.
	Owner string
	Epoch uint64
	// Resume marks a job re-queued after a drain, a restart or a
	// takeover: its next attempt restores from its checkpoint.
	Resume bool
	// IdemKey, when set, is the Idempotency-Key the job was submitted
	// under; later submissions with the same key replay this job.
	IdemKey string
	// Queued is admission time; Started/Finished bracket the run.
	Queued, Started, Finished time.Time

	Progress *ProgressJSON
	Result   *ResultJSON
	Events   *Broadcaster
}

// View renders the job's polling shape.
func (j *Job) View() JobView {
	return JobView{
		ID:       j.ID,
		Status:   j.Status,
		Spec:     j.Spec,
		Queued:   fmtTime(j.Queued),
		Started:  fmtTime(j.Started),
		Finished: fmtTime(j.Finished),
		Progress: j.Progress,
		Result:   j.Result,
		Owner:    j.Owner,
		Epoch:    j.Epoch,
	}
}

// Finish records a terminal result.
func (j *Job) Finish(r ResultJSON) {
	j.Status = r.Status
	j.Result = &r
	j.Finished = time.Now()
}

// JobRow is one job's durable row: the state-file form of both
// daemons and the coordinator's replication record. The standalone
// daemon's rows leave the lease fields zero, and they drop out of the
// JSON.
type JobRow struct {
	ID      string      `json:"id"`
	Spec    JobSpec     `json:"spec"`
	Status  string      `json:"status"`
	Owner   string      `json:"owner,omitempty"`
	Epoch   uint64      `json:"epoch,omitempty"`
	Resume  bool        `json:"resume,omitempty"`
	IdemKey string      `json:"idem_key,omitempty"`
	Queued  string      `json:"queued,omitempty"`
	Result  *ResultJSON `json:"result,omitempty"`
}

// Row renders the job's durable row.
func (j *Job) Row() JobRow {
	return JobRow{
		ID:      j.ID,
		Spec:    j.Spec,
		Status:  j.Status,
		Owner:   j.Owner,
		Epoch:   j.Epoch,
		Resume:  j.Resume,
		IdemKey: j.IdemKey,
		Queued:  fmtTime(j.Queued),
		Result:  j.Result,
	}
}

// Table is a plane's job table: the jobs in submission order, the
// Idempotency-Key index and the ID counter. It holds no lock; the
// daemon that owns it guards it with its own mutex, so the daemon's
// other state (the standalone queue, the coordinator's leases and
// replication log) changes atomically with it. The zero value is an
// empty table.
type Table struct {
	jobs  map[string]*Job
	order []string
	idem  map[string]string
	// Issued counts the job IDs handed out: the next job is
	// j<Issued+1>.
	Issued uint64
}

func (t *Table) insert(j *Job) {
	if t.jobs == nil {
		t.jobs, t.idem = map[string]*Job{}, map[string]string{}
	}
	if _, dup := t.jobs[j.ID]; !dup {
		t.order = append(t.order, j.ID)
	}
	t.jobs[j.ID] = j
	if j.IdemKey != "" {
		t.idem[j.IdemKey] = j.ID
	}
}

// Get returns the job with the given ID, or nil.
func (t *Table) Get(id string) *Job { return t.jobs[id] }

// Each calls f on every job in submission order until f returns false.
func (t *Table) Each(f func(*Job) bool) {
	for _, id := range t.order {
		if !f(t.jobs[id]) {
			return
		}
	}
}

// Open counts the jobs not yet terminal.
func (t *Table) Open() int {
	n := 0
	t.Each(func(j *Job) bool {
		if !Terminal(j.Status) {
			n++
		}
		return true
	})
	return n
}

// Rows renders every job's durable row in submission order.
func (t *Table) Rows() []JobRow {
	rows := make([]JobRow, 0, len(t.order))
	t.Each(func(j *Job) bool { rows = append(rows, j.Row()); return true })
	return rows
}

// Restore adds persisted rows to the table and returns the restored
// jobs that are not terminal, for the daemon to re-queue or re-lease.
// A terminal job's done event is published at once, so a client
// attaching after the restart still receives its result.
func (t *Table) Restore(rows []JobRow) []*Job {
	var open []*Job
	for _, r := range rows {
		j := &Job{ID: r.ID, Spec: r.Spec, Status: r.Status, Owner: r.Owner, Epoch: r.Epoch,
			Resume: r.Resume, IdemKey: r.IdemKey, Result: r.Result, Events: newBroadcaster()}
		if q, err := time.Parse(time.RFC3339Nano, r.Queued); err == nil {
			j.Queued = q
		}
		t.insert(j)
		if !Terminal(j.Status) {
			open = append(open, j)
		} else if j.Result != nil {
			j.Events.Publish(Event{Type: "done", Job: j.ID, Status: j.Status, Result: j.Result})
		}
	}
	return open
}

// Hooks are what each daemon decides for itself. The plane calls
// Full, Admitted and Unready with Mu held.
type Hooks struct {
	// Mu guards the table and everything the hooks touch.
	Mu sync.Locker
	// Draining reports that the daemon refuses all new work (503).
	Draining func() bool
	// Full names why there is no room for one more job ("" = room).
	// The name is both the 429 answer and the /readyz reason, so
	// readiness fails exactly when a submission would be refused.
	Full func() string
	// Admitted hands a freshly inserted job to the daemon: queue or
	// assign it, replicate it, persist the table.
	Admitted func(*Job)
	// Unready is the daemon's own not-ready reason ("" = ready),
	// checked after draining and full. Nil means none.
	Unready func() string
	// Metrics renders the daemon's whole /metrics exposition.
	Metrics func() string
}

// Plane is a job plane: the job table, the admission contract, the
// public routes and the job-result metrics, shared by both daemons.
type Plane struct {
	Table
	hooks      Hooks
	retryAfter time.Duration
	metrics    *JobMetrics
}

// NewPlane builds an empty plane. retryAfter is the base of the
// jittered Retry-After on 429 answers; m receives the job-result
// family.
func NewPlane(h Hooks, retryAfter time.Duration, m *JobMetrics) *Plane {
	return &Plane{hooks: h, retryAfter: retryAfter, metrics: m}
}

// admissionError carries the HTTP answer for a refused submission.
type admissionError struct {
	code       int
	msg        string
	retryAfter time.Duration
}

func (e *admissionError) Error() string { return e.msg }

// submit runs the admission contract, in order:
//
//  1. An Idempotency-Key seen before replays its job (deduped=true).
//     It comes before every refusal, so a client retrying after an
//     ambiguous success converges on the job it already created, even
//     if the plane has filled up or is draining meanwhile.
//  2. The spec is normalized and validated: 400.
//  3. A draining daemon refuses: 503.
//  4. A full daemon refuses: 429 with a jittered Retry-After.
//  5. The job is inserted under the next ID and handed to Admitted.
func (p *Plane) submit(spec JobSpec, idemKey string) (view JobView, deduped bool, err error) {
	p.hooks.Mu.Lock()
	defer p.hooks.Mu.Unlock()
	if idemKey != "" {
		if j := p.jobs[p.idem[idemKey]]; j != nil {
			p.metrics.inc(&p.metrics.deduped)
			return j.View(), true, nil
		}
	}
	if err := spec.Validate(); err != nil {
		return JobView{}, false, &admissionError{code: http.StatusBadRequest, msg: err.Error()}
	}
	if p.hooks.Draining() {
		p.metrics.inc(&p.metrics.rejected)
		return JobView{}, false, &admissionError{code: http.StatusServiceUnavailable, msg: "draining"}
	}
	if full := p.hooks.Full(); full != "" {
		p.metrics.inc(&p.metrics.rejected)
		return JobView{}, false, &admissionError{code: http.StatusTooManyRequests, msg: full, retryAfter: p.retryAfter}
	}
	p.Issued++
	j := &Job{ID: fmt.Sprintf("j%06d", p.Issued), Spec: spec, Status: StatusQueued, IdemKey: idemKey,
		Queued: time.Now(), Events: newBroadcaster()}
	p.insert(j)
	p.hooks.Admitted(j)
	p.metrics.inc(&p.metrics.submitted)
	return j.View(), false, nil
}

// Done folds a terminal result into the job-result metrics and
// publishes the job's done event. Call it after recording the result
// with Finish, without holding the daemon's lock.
func (p *Plane) Done(j *Job, r ResultJSON) {
	p.metrics.done(r)
	j.Events.Publish(Event{Type: "done", Job: j.ID, Status: r.Status, Result: &r})
}

// Routes registers the public routes on mux: submit, list, poll and
// SSE events under /v1/jobs, plus /metrics, /healthz and /readyz.
func (p *Plane) Routes(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/jobs", p.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", p.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", p.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/events", p.handleEvents)
	mux.HandleFunc("GET /metrics", p.handleMetrics)
	mux.HandleFunc("GET /healthz", p.handleHealth)
	mux.HandleFunc("GET /readyz", p.handleReady)
}

// maxBody caps a submission body.
const maxBody = 1 << 20

// decodeSpec is the strict submission decode: at most maxBody bytes
// and no unknown fields. w may be nil outside a request.
func decodeSpec(w http.ResponseWriter, body io.ReadCloser) (JobSpec, error) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, body, maxBody))
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	return spec, err
}

func (p *Plane) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := decodeSpec(w, r.Body)
	if err != nil {
		HTTPError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	view, deduped, err := p.submit(spec, r.Header.Get("Idempotency-Key"))
	if err != nil {
		var ae *admissionError
		if !errors.As(err, &ae) {
			HTTPError(w, http.StatusInternalServerError, err.Error())
			return
		}
		if ae.retryAfter > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(jitterSeconds(ae.retryAfter)))
		}
		HTTPError(w, ae.code, ae.msg)
		return
	}
	if deduped {
		w.Header().Set("Idempotency-Replayed", "true")
	}
	WriteJSON(w, http.StatusAccepted, view)
}

func (p *Plane) handleList(w http.ResponseWriter, r *http.Request) {
	p.hooks.Mu.Lock()
	views := make([]JobView, 0, len(p.order))
	p.Each(func(j *Job) bool { views = append(views, j.View()); return true })
	p.hooks.Mu.Unlock()
	WriteJSON(w, http.StatusOK, map[string]any{"jobs": views})
}

func (p *Plane) handleJob(w http.ResponseWriter, r *http.Request) {
	p.hooks.Mu.Lock()
	j := p.Get(r.PathValue("id"))
	var view JobView
	if j != nil {
		view = j.View()
	}
	p.hooks.Mu.Unlock()
	if j == nil {
		HTTPError(w, http.StatusNotFound, "no such job")
		return
	}
	WriteJSON(w, http.StatusOK, view)
}

// handleEvents streams a job's lifecycle as server-sent events until
// the job finishes or the client disconnects. A client attaching after
// completion receives the terminal event immediately.
func (p *Plane) handleEvents(w http.ResponseWriter, r *http.Request) {
	p.hooks.Mu.Lock()
	j := p.Get(r.PathValue("id"))
	var status string
	if j != nil {
		status = j.Status
	}
	p.hooks.Mu.Unlock()
	if j == nil {
		HTTPError(w, http.StatusNotFound, "no such job")
		return
	}
	streamEvents(w, r, j.Events, j.ID, status)
}

func (p *Plane) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, p.hooks.Metrics())
}

// handleHealth is pure liveness: the process is up and serving. It
// stays 200 through a drain — a draining daemon is alive, just not
// accepting work; that distinction belongs to /readyz.
func (p *Plane) handleHealth(w http.ResponseWriter, r *http.Request) {
	state := "ok"
	if p.hooks.Draining() {
		state = "draining"
	}
	WriteJSON(w, http.StatusOK, map[string]string{"status": state})
}

// handleReady is readiness: 200 only when a submission would be
// admitted right now. Otherwise 503 with the first failing reason:
// draining, full, then the daemon's own.
func (p *Plane) handleReady(w http.ResponseWriter, r *http.Request) {
	reason := "draining"
	if !p.hooks.Draining() {
		p.hooks.Mu.Lock()
		reason = p.hooks.Full()
		if reason == "" && p.hooks.Unready != nil {
			reason = p.hooks.Unready()
		}
		p.hooks.Mu.Unlock()
	}
	if reason != "" {
		WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "unready", "reason": reason})
		return
	}
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// jitterSeconds renders a Retry-After duration as whole seconds with
// random positive jitter of up to ~25% of the base: every rejected
// client backing off the literal hint would otherwise return in one
// synchronized wave and re-trip the same full plane.
func jitterSeconds(d time.Duration) int {
	base := int((d + time.Second - 1) / time.Second)
	return base + rand.Intn(2+base/4)
}

// WriteJSON answers with v as a JSON body.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// HTTPError answers with a JSON error body.
func HTTPError(w http.ResponseWriter, code int, msg string) {
	WriteJSON(w, code, map[string]string{"error": msg})
}
