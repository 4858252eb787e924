// Package server is the simulation-as-a-service layer: a crash-safe job
// daemon (cmd/ptmcd) that accepts experiment jobs over HTTP/JSON, runs
// them on the internal/exec pool via the ctx-aware sim.RunContext, and is
// engineered for failure first — the same philosophy the paper applies to
// PTMC itself (never lose data, degrade gracefully, keep the expensive
// machinery off the critical path).
//
// The durability contract mirrors the memory controller's: a job is
// acknowledged (HTTP 202) only after its accept record is fsync'd into the
// write-ahead job store, so a kill -9 at any instant loses no accepted
// work. On restart the daemon replays the WAL, completes jobs whose result
// artifact already landed, and re-enqueues the rest; because simulations
// are deterministic, a replayed job produces a byte-identical result. The
// chaos campaign in chaos_test.go adjudicates randomized crash, torn-write,
// and cancellation trials against this contract with a zero-LOST bar.
package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"sync"

	"ptmc/internal/sim"
	"ptmc/internal/workload"
)

// JobSpec is the wire form of one experiment job: a run spec (workload,
// cores, horizon, seed, trace, design point), a scheme matrix, and
// service-only fields. Zero run fields take the paper's defaults and a
// point field equal to Table I becomes zero (sim.Spec.Normalize). The
// normalized spec — not the raw request bytes — is what gets keyed,
// stored, and replayed, so two requests that mean the same experiment
// share one job.
type JobSpec struct {
	sim.Spec
	Schemes []string `json:"schemes"`
	// TimeoutSec bounds each scheme's simulation (0 = server default).
	TimeoutSec int `json:"timeout_sec,omitempty"`
	// Tenant attributes the job for quota accounting ("" = "default").
	Tenant string `json:"tenant,omitempty"`
	// Priority picks the scheduling class: interactive > batch >
	// sweep-child ("" = batch). Scheduling metadata only — it does not
	// participate in the job key, so resubmitting an experiment at a
	// different priority joins the existing job rather than re-running it.
	// Persisted with the spec, so a replayed job keeps its class.
	Priority string `json:"priority,omitempty"`
}

// Normalize fills defaults in place and validates the spec against the
// simulator's own rules, returning a typed *APIError on rejection.
func (s *JobSpec) Normalize() error {
	if s.Workload == "" {
		return badRequest("workload is required")
	}
	if len(s.Schemes) == 0 {
		s.Schemes = []string{sim.SchemeDynamicPTMC}
	}
	seen := map[string]bool{}
	for _, sc := range s.Schemes {
		if seen[sc] {
			return badRequest(fmt.Sprintf("duplicate scheme %q", sc))
		}
		seen[sc] = true
	}
	if s.Tenant == "" {
		s.Tenant = "default"
	}
	if s.Priority == "" {
		s.Priority = PriorityBatch
	}
	switch s.Priority {
	case PriorityInteractive, PriorityBatch, PrioritySweepChild:
	default:
		return badRequest(fmt.Sprintf("unknown priority %q (want %s|%s|%s)",
			s.Priority, PriorityInteractive, PriorityBatch, PrioritySweepChild))
	}
	if s.TimeoutSec < 0 {
		return badRequest("timeout_sec must be >= 0")
	}
	s.Spec.Normalize()
	// Validate once per scheme with the simulator's own rules, so the
	// daemon rejects at accept time what the worker would reject at run
	// time (a rejected request costs no WAL write).
	for _, scheme := range s.Schemes {
		cfg := s.Config(scheme)
		if err := cfg.Validate(); err != nil {
			return badRequest(err.Error())
		}
	}
	// The mix/workload name must resolve now: an unknown workload must be
	// a 400 at submit, not a failed job an hour later.
	if _, err := workload.Lookup(s.Workload); err != nil {
		if _, merr := workload.LookupMix(s.Workload); merr != nil {
			return badRequest(fmt.Sprintf("unknown workload or mix %q", s.Workload))
		}
	}
	return nil
}

// Key is the job's content-derived identity: a short hash of the
// workload, the scheme matrix, every run field and the design point, plus
// TimeoutSec.
// Identical specs — across requests, tenants, and daemon restarts — share
// one key, one WAL entry, and one persistent result; that is what makes
// repeated sweeps across restarts free. Priority deliberately does not
// participate (scheduling metadata); Trace does (a traced run is a
// different artifact). TimeoutSec does too, although it cannot change a
// result: a failed job is kept for good and answers an identical
// resubmission, so a longer timeout is how a client retries a run that
// timed out (DESIGN.md §8).
//
// The constant "sh0|evfalse" fields are the retired engine knobs (shards,
// event_driven) at their defaults, as in sim.Spec.Key: keeping them in the
// hashed string keeps every id minted before the knobs were removed
// stable, so resubmitted experiments still dedupe against their persisted
// results. The point's suffix is empty at Table I for the same reason.
func (s *JobSpec) Key() string {
	variant := fmt.Sprintf("c%d|w%d|m%d|s%d|sh0|evfalse|t%d|tr%t",
		s.Cores, s.Warmup, s.Measure, s.Seed, s.TimeoutSec, s.Trace) + s.Point.Key()
	h := sha256.Sum256([]byte(s.Workload + "|" + strings.Join(s.Schemes, ",") + "|" + variant))
	return "j" + hex.EncodeToString(h[:8])
}

// Job states. The daemon's crash-recovery state machine (DESIGN.md) allows
// exactly these transitions:
//
//	accepted -> running -> done | failed
//	accepted -> failed            (validation raced, drain cancellation)
//	running  -> accepted          (crash or drain: replay re-enqueues;
//	                               or a store write failed mid-settlement:
//	                               the quota unit is released and the job
//	                               re-enqueues in-process with backoff)
const (
	StateAccepted = "accepted" // WAL accept record fsync'd; queued or re-queued
	StateRunning  = "running"  // a worker holds it (not persisted: crash => accepted)
	StateDone     = "done"     // result artifact on disk + WAL done record
	StateFailed   = "failed"   // WAL done record with a typed error
)

// Typed failure kinds persisted with a failed job. Every failure a client
// can observe carries one of these — "degraded, never silent".
const (
	FailKindPanic    = "panic"    // exec.PanicError: isolated, never retried
	FailKindTimeout  = "timeout"  // per-job deadline exceeded
	FailKindCanceled = "canceled" // drain or client cancellation
	FailKindSim      = "sim"      // simulator returned an error
)

// JobStatus is the client-visible state of one job.
type JobStatus struct {
	ID       string   `json:"id"`
	State    string   `json:"state"`
	Tenant   string   `json:"tenant,omitempty"`
	Workload string   `json:"workload"`
	Schemes  []string `json:"schemes"`
	Priority string   `json:"priority,omitempty"`
	// SchemesDone counts completed matrix points (progress).
	SchemesDone int    `json:"schemes_done"`
	FailKind    string `json:"fail_kind,omitempty"`
	Error       string `json:"error,omitempty"`
	// Replayed marks a job re-enqueued from the WAL after a restart.
	Replayed bool `json:"replayed,omitempty"`
}

// Event is one progress notification on a job's stream: kept in the job's
// backlog (so SSE clients that disconnect and return replay from any
// point) and fanned out to live subscribers.
type Event struct {
	Seq  int    `json:"seq"`
	Kind string `json:"kind"` // accepted|queued|started|scheme|replayed|requeued|canceled|done|failed
	Msg  string `json:"msg,omitempty"`
}

// job is the in-memory record the server tracks per key.
type job struct {
	id   string
	spec JobSpec

	mu          sync.Mutex
	state       string
	schemesDone int
	failKind    string
	errMsg      string
	replayed    bool
	requeues    int // in-process settlement retries (backoff exponent)
	events      []Event
	subs        map[chan Event]struct{} // live SSE subscribers
	done        chan struct{}           // closed on done/failed
}

func newJob(id string, spec JobSpec) *job {
	j := &job{id: id, spec: spec, state: StateAccepted,
		subs: make(map[chan Event]struct{}), done: make(chan struct{})}
	return j
}

// emit appends one event to the backlog and notifies live subscribers.
// Slow subscribers are skipped, never blocked on: the backlog is the
// source of truth and a reconnect (or the gap-heal in handleEvents)
// replays it.
func (j *job) emit(kind, msg string) {
	j.mu.Lock()
	j.emitLocked(kind, msg)
	j.mu.Unlock()
}

func (j *job) emitLocked(kind, msg string) {
	ev := Event{Seq: len(j.events) + 1, Kind: kind, Msg: msg}
	j.events = append(j.events, ev)
	for ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// finish moves the job to a terminal state exactly once. The terminal
// event is appended to the backlog in the same critical section that
// closes j.done: an SSE handler waking on <-j.done is therefore
// guaranteed to find the done/failed event in backlogAfter, however the
// wakeup races the emit. (Emitting after the close — the old order — let
// a handler read the backlog in the window between close and append and
// end the stream without ever delivering the terminal event.)
func (j *job) finish(state, failKind, errMsg string) {
	j.mu.Lock()
	if j.state == StateDone || j.state == StateFailed {
		j.mu.Unlock()
		return
	}
	j.state = state
	j.failKind = failKind
	j.errMsg = errMsg
	if state == StateDone {
		j.emitLocked("done", "")
	} else {
		j.emitLocked("failed", failKind+": "+errMsg)
	}
	close(j.done)
	j.mu.Unlock()
}

// subscribe registers a live event channel and returns the backlog events
// after seq (exclusive) for replay.
func (j *job) subscribe(afterSeq int, ch chan Event) []Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.subs[ch] = struct{}{}
	if afterSeq >= len(j.events) {
		return nil
	}
	backlog := make([]Event, len(j.events)-afterSeq)
	copy(backlog, j.events[afterSeq:])
	return backlog
}

// backlogAfter copies the events recorded after seq (exclusive).
func (j *job) backlogAfter(seq int) []Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	if seq >= len(j.events) {
		return nil
	}
	backlog := make([]Event, len(j.events)-seq)
	copy(backlog, j.events[seq:])
	return backlog
}

func (j *job) unsubscribe(ch chan Event) {
	j.mu.Lock()
	delete(j.subs, ch)
	j.mu.Unlock()
}

// status snapshots the client-visible state.
func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{
		ID:          j.id,
		State:       j.state,
		Tenant:      j.spec.Tenant,
		Workload:    j.spec.Workload,
		Schemes:     append([]string(nil), j.spec.Schemes...),
		Priority:    j.spec.Priority,
		SchemesDone: j.schemesDone,
		FailKind:    j.failKind,
		Error:       j.errMsg,
		Replayed:    j.replayed,
	}
}

// APIError is the typed rejection the HTTP layer renders: a status code
// plus a stable machine-readable reason. Queue pressure and quota
// exhaustion are APIErrors (429/503), not generic failures — a client can
// tell "try later" from "never".
type APIError struct {
	Code   int    `json:"-"`
	Reason string `json:"reason"` // stable token: bad_request|queue_full|quota|draining|...
	Msg    string `json:"error"`
}

func (e *APIError) Error() string { return fmt.Sprintf("%s: %s", e.Reason, e.Msg) }

func badRequest(msg string) *APIError {
	return &APIError{Code: 400, Reason: "bad_request", Msg: msg}
}

// canonicalJSON marshals v with deterministic field order (struct order);
// the persisted artifacts rely on this for byte-identical replay.
func canonicalJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		// Specs and results are plain data; marshal cannot fail for them.
		panic(fmt.Sprintf("server: canonicalJSON: %v", err))
	}
	return b
}
