// Package server is the dsasimd simulation service: an HTTP/JSON
// front end that accepts simulation jobs (a named workload or raw
// armlite assembly × a DSA configuration), admits them through a
// bounded queue with explicit backpressure, executes them on the
// runner's worker pool with the full retry/degradation ladder, and
// exposes job lifecycle over polling, server-sent events, and
// Prometheus metrics. A SIGTERM drain checkpoints in-flight jobs
// through the runner's snapshot machinery so a restarted daemon
// resumes them bit-identically.
//
// The job plane itself — job records and rows, admission, views,
// public routes, job-result metrics and runner glue (plane.go) — is
// shared with the cluster coordinator, which plugs its own capacity,
// dispatch and readiness into the same Plane.
package server

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/armlite"
	"repro/internal/asm"
	"repro/internal/cpu"
	"repro/internal/dsa"
	"repro/internal/runner"
	"repro/internal/workloads"
)

// JobSpec is the submission body of POST /v1/jobs. Exactly one of
// Workload (a built-in suite name) or Source (raw armlite assembly)
// must be set.
type JobSpec struct {
	// Name labels the job in reports; it defaults to the workload name
	// or "source".
	Name string `json:"name,omitempty"`
	// Workload names a built-in workload (see workloads.Names).
	Workload string `json:"workload,omitempty"`
	// Source is raw armlite assembly, parsed with the error-returning
	// parser; submissions with syntax errors are rejected with 400.
	Source string `json:"source,omitempty"`
	// Config picks the system setup: "extended" (default), "original",
	// "adaptive" (extended DSA plus the per-loop takeover policy), or
	// "scalar" (DSA off).
	Config string `json:"config,omitempty"`
	// Verify enables the differential oracle on every takeover.
	Verify bool `json:"verify,omitempty"`
	// TimeoutMS overrides the daemon's per-attempt deadline (0 = inherit).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// ConfigByName resolves a system-config name shared by the service
// and the batch CLI.
func ConfigByName(name string) (cfg dsa.Config, dsaOff bool, err error) {
	switch name {
	case "extended", "":
		return dsa.DefaultConfig(), false, nil
	case "original":
		return dsa.OriginalConfig(), false, nil
	case "adaptive":
		return dsa.AdaptiveConfig(), false, nil
	case "scalar":
		return dsa.Config{}, true, nil
	default:
		return dsa.Config{}, false, fmt.Errorf("unknown config %q (want extended, original, adaptive or scalar)", name)
	}
}

// Validate normalizes the spec — CR and LF in the name become spaces —
// and reports the first problem. It is called at submission time so
// clients get a 400, never a failed job, for malformed requests.
func (s *JobSpec) Validate() error {
	s.Name = trimSourceName(s.Name)
	if (s.Workload == "") == (s.Source == "") {
		return fmt.Errorf("exactly one of workload or source must be set")
	}
	if s.Workload != "" {
		if _, err := workloads.ByName(s.Workload); err != nil {
			return err
		}
	} else if _, err := asm.Parse(s.sourceName(), s.Source); err != nil {
		return err
	}
	if _, _, err := ConfigByName(s.Config); err != nil {
		return err
	}
	if s.TimeoutMS < 0 {
		return fmt.Errorf("timeout_ms must be >= 0")
	}
	return nil
}

func (s *JobSpec) sourceName() string {
	if s.Name != "" {
		return s.Name
	}
	return "source"
}

// RunnerJob converts a validated spec into a runner job named id (the
// service keys checkpoints and progress by job ID, so resubmitting the
// same spec never collides).
func (s *JobSpec) RunnerJob(id string) (runner.Job, error) {
	cfg, dsaOff, err := ConfigByName(s.Config)
	if err != nil {
		return runner.Job{}, err
	}
	if !dsaOff && s.Verify {
		cfg.Verify = dsa.VerifyConfig{Enabled: true, Fallback: true}
	}
	w, err := s.workload()
	if err != nil {
		return runner.Job{}, err
	}
	return runner.Job{
		Name:     id,
		Workload: w,
		CPU:      cpu.DefaultConfig(),
		DSA:      cfg,
		DSAOff:   dsaOff,
		Timeout:  time.Duration(s.TimeoutMS) * time.Millisecond,
	}, nil
}

// workload resolves the spec to a runnable workload: a suite entry, or
// a synthetic wrapper around client source (no memory setup beyond the
// machine default, no output check — the result is the digest).
func (s *JobSpec) workload() (*workloads.Workload, error) {
	if s.Workload != "" {
		return workloads.ByName(s.Workload)
	}
	prog, err := asm.Parse(s.sourceName(), s.Source)
	if err != nil {
		return nil, err
	}
	return &workloads.Workload{
		Name:        s.sourceName(),
		Description: "client-submitted source",
		Scalar:      func() *armlite.Program { return prog },
		Setup:       func(*cpu.Machine) {},
		Check:       func(*cpu.Machine) error { return nil },
	}, nil
}

// Job statuses the service adds on top of the runner's terminal ones.
const (
	// StatusQueued: admitted, waiting for a worker.
	StatusQueued = "queued"
	// StatusRunning: on a worker right now.
	StatusRunning = "running"
	// StatusInterrupted: stopped by a drain with its checkpoint saved;
	// a restarted daemon re-queues and resumes it.
	StatusInterrupted = "interrupted"
)

// ResultJSON is the terminal result schema shared by GET /v1/jobs/{id}
// and `dsasim -batch -json`, so CLI and service output are diffable.
type ResultJSON struct {
	Job      string `json:"job"`
	Status   string `json:"status"`
	Cause    string `json:"cause,omitempty"`
	Attempts int    `json:"attempts"`
	// AttemptCauses lists every failed attempt's classified cause in
	// the order they occurred.
	AttemptCauses []string `json:"attempt_causes,omitempty"`
	Degraded      bool     `json:"degraded,omitempty"`
	WallNS        int64    `json:"wall_ns"`
	Ticks         int64    `json:"ticks,omitempty"`
	Steps         uint64   `json:"steps,omitempty"`
	// MemDigest is the FNV-1a digest of the final memory image as 16
	// hex digits (a string: JSON numbers cannot carry 64 bits).
	MemDigest       string            `json:"mem_digest,omitempty"`
	Takeovers       uint64            `json:"takeovers,omitempty"`
	VectorizedIters uint64            `json:"vectorized_iters,omitempty"`
	Fallbacks       uint64            `json:"fallbacks,omitempty"`
	FallbackReasons map[string]uint64 `json:"fallback_reasons,omitempty"`
	// Energy is the paper's energy-model breakdown for the successful
	// run (absent for failed jobs).
	Energy *EnergyJSON `json:"energy,omitempty"`
	// Adaptive-policy counters (absent outside the "adaptive" config).
	PolicyKept      uint64 `json:"policy_kept,omitempty"`
	PolicySuspended uint64 `json:"policy_suspended,omitempty"`
	PolicyTrialed   uint64 `json:"policy_trialed,omitempty"`
	ResumedFromStep uint64 `json:"resumed_from_step,omitempty"`
	ResumeNote      string `json:"resume_note,omitempty"`
	Error           string `json:"error,omitempty"`
}

// EnergyJSON is the energy breakdown in nanojoules, by component.
type EnergyJSON struct {
	FrontEndNJ float64 `json:"front_end_nj"`
	ScalarNJ   float64 `json:"scalar_nj"`
	CachesNJ   float64 `json:"caches_nj"`
	NEONNJ     float64 `json:"neon_nj"`
	DSANJ      float64 `json:"dsa_nj"`
	TotalNJ    float64 `json:"total_nj"`
}

// ResultFromRunner renders a runner result in the wire schema.
func ResultFromRunner(r runner.Result) ResultJSON {
	out := ResultJSON{
		Job:             r.Job,
		Status:          string(r.Status),
		Cause:           r.Cause,
		Attempts:        r.Attempts,
		AttemptCauses:   append([]string(nil), r.AttemptCauses...),
		Degraded:        r.Degraded,
		WallNS:          r.Wall.Nanoseconds(),
		Ticks:           r.Ticks,
		Steps:           r.Steps,
		ResumedFromStep: r.ResumedFromStep,
		ResumeNote:      r.ResumeNote,
	}
	if r.Status != runner.StatusFailed {
		out.MemDigest = fmt.Sprintf("%016x", r.MemSum)
		out.Energy = &EnergyJSON{
			FrontEndNJ: r.Energy.FrontEnd,
			ScalarNJ:   r.Energy.Scalar,
			CachesNJ:   r.Energy.Caches,
			NEONNJ:     r.Energy.NEON,
			DSANJ:      r.Energy.DSA,
			TotalNJ:    r.Energy.Total(),
		}
	}
	if r.Stats != nil {
		out.Takeovers = r.Stats.Takeovers
		out.VectorizedIters = r.Stats.VectorizedIters
		out.Fallbacks = r.Stats.Fallbacks
		out.PolicyKept = r.Stats.PolicyKept
		out.PolicySuspended = r.Stats.PolicySuspended
		out.PolicyTrialed = r.Stats.PolicyTrialed
		if len(r.Stats.FallbackReasons) > 0 {
			out.FallbackReasons = make(map[string]uint64, len(r.Stats.FallbackReasons))
			for k, v := range r.Stats.FallbackReasons {
				out.FallbackReasons[k] = v
			}
		}
	}
	if r.Err != nil {
		out.Error = r.Err.Error()
	}
	return out
}

// RunJob runs a job's spec on pool under its service ID — the runner
// glue both planes share. epoch and resume pick the checkpoint the
// first attempt restores from. ok is false when a drain or a
// revocation cut the run short: the checkpoint stays for the next run
// and there is no result to record.
func RunJob(ctx context.Context, pool *runner.Pool, id string, spec JobSpec, epoch uint64, resume bool) (r ResultJSON, ok bool) {
	job, err := spec.RunnerJob(id)
	if err != nil {
		// Admission validates every spec, so this is a state-file edit
		// or a workload renamed across versions: fail the job, keep
		// the service.
		return ResultJSON{Job: id, Status: string(runner.StatusFailed), Cause: "bad-spec", Error: err.Error()}, true
	}
	job.Epoch, job.Resume = epoch, resume
	res := pool.Do(ctx, job)
	if res.Status == runner.StatusFailed && (res.Cause == runner.CauseDrained || res.Cause == runner.CauseRevoked) {
		return ResultJSON{}, false
	}
	return ResultFromRunner(res), true
}

// ProgressJSON is one live progress sample on the SSE stream.
type ProgressJSON struct {
	Job       string `json:"job"`
	Attempt   int    `json:"attempt"`
	DSAOff    bool   `json:"dsa_off,omitempty"`
	Steps     uint64 `json:"steps"`
	Ticks     int64  `json:"ticks"`
	Takeovers uint64 `json:"takeovers"`
	Fallbacks uint64 `json:"fallbacks"`
}

// ProgressFromRunner renders a pool progress sample in the wire schema.
func ProgressFromRunner(p runner.Progress) ProgressJSON {
	return ProgressJSON{Job: p.Job, Attempt: p.Attempt, DSAOff: p.DSAOff,
		Steps: p.Steps, Ticks: p.Ticks, Takeovers: p.Takeovers, Fallbacks: p.Fallbacks}
}

// JobView is the polling shape of GET /v1/jobs/{id}.
type JobView struct {
	ID     string  `json:"id"`
	Status string  `json:"status"`
	Spec   JobSpec `json:"spec"`
	// Queued/Started/Finished are RFC 3339 timestamps ("" = not yet).
	Queued   string        `json:"queued,omitempty"`
	Started  string        `json:"started,omitempty"`
	Finished string        `json:"finished,omitempty"`
	Progress *ProgressJSON `json:"progress,omitempty"`
	Result   *ResultJSON   `json:"result,omitempty"`
	// Owner/Epoch are cluster-mode fields: the worker currently leased
	// the job and the assignment's fencing epoch. Standalone daemons
	// leave them zero (and they disappear from the JSON).
	Owner string `json:"owner,omitempty"`
	Epoch uint64 `json:"epoch,omitempty"`
}

// Terminal reports whether a service status is final.
func Terminal(status string) bool {
	switch status {
	case string(runner.StatusOK), string(runner.StatusDegraded), string(runner.StatusFailed):
		return true
	}
	return false
}

// Event is one SSE payload: a status change, a progress sample, or the
// terminal result.
type Event struct {
	Type     string        `json:"type"` // "status" | "progress" | "done"
	Job      string        `json:"job"`
	Status   string        `json:"status,omitempty"`
	Progress *ProgressJSON `json:"progress,omitempty"`
	Result   *ResultJSON   `json:"result,omitempty"`
}

// fmtTime renders a timestamp for JobView ("" for the zero time).
func fmtTime(t time.Time) string {
	if t.IsZero() {
		return ""
	}
	return t.UTC().Format(time.RFC3339Nano)
}

// trimSourceName keeps client-supplied names log-safe: the service
// uses job IDs for files, so this only guards log readability.
func trimSourceName(s string) string {
	return strings.Map(func(r rune) rune {
		if r == '\n' || r == '\r' {
			return ' '
		}
		return r
	}, s)
}
