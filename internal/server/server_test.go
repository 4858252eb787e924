package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ptmc/internal/sim"
)

// fakeResult builds a small deterministic result so service tests don't
// pay for real simulations (chaos and integration tests run real ones).
func fakeResult(cfg sim.Config) *sim.Result {
	return &sim.Result{
		Workload:     cfg.Workload,
		Scheme:       cfg.Scheme,
		Cores:        cfg.Cores,
		Instructions: cfg.MeasureInstr * int64(cfg.Cores),
		Cycles:       cfg.MeasureInstr + cfg.Seed,
		PerCoreIPC:   []float64{1.0, 2.0},
	}
}

// newTestServer boots a server over a temp store with a stubbed
// simulator. mutate tweaks the config; stub replaces runSim (nil keeps
// the instant fake).
func newTestServer(t *testing.T, mutate func(*Config), stub func(ctx context.Context, cfg sim.Config) (*sim.Result, error)) (*Server, *httptest.Server) {
	t.Helper()
	if stub == nil {
		stub = func(ctx context.Context, c sim.Config) (*sim.Result, error) {
			return fakeResult(c), nil
		}
	}
	cfg := Config{Dir: t.TempDir(), Parallel: 2, QueueCap: 8, RunSim: stub}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return s, hs
}

func submit(t *testing.T, hs *httptest.Server, spec string) (int, JobStatus) {
	t.Helper()
	resp, err := http.Post(hs.URL+"/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	json.NewDecoder(resp.Body).Decode(&st)
	return resp.StatusCode, st
}

func waitState(t *testing.T, hs *httptest.Server, id, want string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(hs.URL + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if st.State == want {
			return st
		}
		if st.State == StateFailed && want != StateFailed {
			t.Fatalf("job %s failed (%s: %s) while waiting for %s", id, st.FailKind, st.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return JobStatus{}
}

const tinySpec = `{"workload":"lbm06","schemes":["uncompressed","ptmc"],"cores":2,"warmup_instr":100,"measure_instr":200}`

func TestSubmitRunResult(t *testing.T) {
	_, hs := newTestServer(t, nil, nil)
	code, st := submit(t, hs, tinySpec)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", code)
	}
	if st.ID == "" || st.State != StateAccepted {
		t.Fatalf("bad status: %+v", st)
	}
	fin := waitState(t, hs, st.ID, StateDone)
	if fin.SchemesDone != 2 {
		t.Fatalf("schemes_done = %d, want 2", fin.SchemesDone)
	}

	resp, err := http.Get(hs.URL + "/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var art ResultArtifact
	if err := json.NewDecoder(resp.Body).Decode(&art); err != nil {
		t.Fatal(err)
	}
	if len(art.Results) != 2 || art.Results[0].Scheme != "uncompressed" ||
		art.Results[1].Scheme != "ptmc" {
		t.Fatalf("artifact schemes wrong: %+v", art.Results)
	}
	if art.Results[0].Result.Workload != "lbm06" {
		t.Fatalf("result payload wrong: %+v", art.Results[0].Result)
	}

	// Idempotent resubmission: same spec, same job, 200 not 202.
	code2, st2 := submit(t, hs, tinySpec)
	if code2 != http.StatusOK || st2.ID != st.ID {
		t.Fatalf("resubmit = %d id %s, want 200 id %s", code2, st2.ID, st.ID)
	}
}

func TestSubmitValidation(t *testing.T) {
	_, hs := newTestServer(t, nil, nil)
	for _, bad := range []string{
		`{`,
		`{"schemes":["ptmc"]}`,
		`{"workload":"nope-not-a-workload"}`,
		`{"workload":"lbm06","schemes":["bogus"]}`,
		`{"workload":"lbm06","schemes":["ptmc","ptmc"]}`,
		`{"workload":"lbm06","cores":100000}`,
	} {
		code, _ := submit(t, hs, bad)
		if code != http.StatusBadRequest {
			t.Errorf("submit(%s) = %d, want 400", bad, code)
		}
	}
}

func TestQueueFullAndTenantQuota(t *testing.T) {
	release := make(chan struct{})
	var started atomic.Int32
	stub := func(ctx context.Context, c sim.Config) (*sim.Result, error) {
		started.Add(1)
		select {
		case <-release:
			return fakeResult(c), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	_, hs := newTestServer(t, func(c *Config) {
		c.Parallel = 1
		c.QueueCap = 1
		c.TenantQuota = 2
	}, stub)
	defer close(release)

	mk := func(tenant string, seed int) string {
		return fmt.Sprintf(`{"workload":"lbm06","schemes":["ptmc"],"cores":2,"warmup_instr":100,"measure_instr":200,"seed":%d,"tenant":%q}`, seed, tenant)
	}
	// First job occupies the single worker...
	code, _ := submit(t, hs, mk("a", 1))
	if code != http.StatusAccepted {
		t.Fatalf("job1 = %d", code)
	}
	for started.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	// ...second fills the queue slot...
	if code, _ := submit(t, hs, mk("b", 2)); code != http.StatusAccepted {
		t.Fatalf("job2 = %d, want 202", code)
	}
	// ...third bounces with a typed 503 queue_full.
	resp, err := http.Post(hs.URL+"/jobs", "application/json", strings.NewReader(mk("c", 3)))
	if err != nil {
		t.Fatal(err)
	}
	var ae APIError
	json.NewDecoder(resp.Body).Decode(&ae)
	resp.Body.Close()
	if resp.StatusCode != 503 || ae.Reason != "queue_full" {
		t.Fatalf("job3 = %d %q, want 503 queue_full", resp.StatusCode, ae.Reason)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}

	// Tenant quota: tenant a already has 1 in flight (quota 2) — a second
	// job for a would exceed the queue, so test quota on its own server.
	_, hs2 := newTestServer(t, func(c *Config) {
		c.Parallel = 1
		c.QueueCap = 8
		c.TenantQuota = 2
	}, stub)
	for i := 0; i < 2; i++ {
		if code, _ := submit(t, hs2, mk("q", 10+i)); code != http.StatusAccepted {
			t.Fatalf("quota job %d rejected", i)
		}
	}
	resp2, _ := http.Post(hs2.URL+"/jobs", "application/json", strings.NewReader(mk("q", 12)))
	var ae2 APIError
	json.NewDecoder(resp2.Body).Decode(&ae2)
	resp2.Body.Close()
	if resp2.StatusCode != 429 || ae2.Reason != "quota" {
		t.Fatalf("quota breach = %d %q, want 429 quota", resp2.StatusCode, ae2.Reason)
	}
	// A different tenant is unaffected by q's quota.
	if code, _ := submit(t, hs2, mk("other", 13)); code != http.StatusAccepted {
		t.Fatalf("other tenant = %d, want 202", code)
	}
}

func TestTypedFailuresPersist(t *testing.T) {
	boom := errors.New("sim exploded")
	stub := func(ctx context.Context, c sim.Config) (*sim.Result, error) {
		if c.Scheme == "ptmc" {
			return nil, boom
		}
		if c.Scheme == "memzip" {
			panic("controller bug")
		}
		return fakeResult(c), nil
	}
	s, hs := newTestServer(t, nil, stub)

	_, st := submit(t, hs, `{"workload":"lbm06","schemes":["uncompressed","ptmc"],"cores":2,"warmup_instr":100,"measure_instr":200}`)
	fin := waitState(t, hs, st.ID, StateFailed)
	if fin.FailKind != FailKindSim || !strings.Contains(fin.Error, "sim exploded") {
		t.Fatalf("fail kind %q err %q, want sim", fin.FailKind, fin.Error)
	}
	// Result endpoint reports the typed failure as 409.
	resp, _ := http.Get(hs.URL + "/jobs/" + st.ID + "/result")
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("result of failed job = %d, want 409", resp.StatusCode)
	}

	// Panic isolation: the panicking job fails typed; the daemon survives
	// and keeps serving other jobs.
	_, st2 := submit(t, hs, `{"workload":"lbm06","schemes":["memzip"],"cores":2,"warmup_instr":100,"measure_instr":200}`)
	fin2 := waitState(t, hs, st2.ID, StateFailed)
	if fin2.FailKind != FailKindPanic {
		t.Fatalf("fail kind %q, want panic", fin2.FailKind)
	}
	_, st3 := submit(t, hs, `{"workload":"lbm06","schemes":["uncompressed"],"cores":2,"warmup_instr":100,"measure_instr":200,"seed":9}`)
	waitState(t, hs, st3.ID, StateDone)

	// Both failures are durable: a restart over the same dir replays them
	// as failed, not as pending work.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	re, err := OpenStore(s.cfg.Dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	states := map[string]string{}
	for _, j := range re.Jobs() {
		states[j.ID] = j.State
	}
	if states[st.ID] != StateFailed || states[st2.ID] != StateFailed || states[st3.ID] != StateDone {
		t.Fatalf("replayed states wrong: %v", states)
	}
}

func TestEventsSSEReplayAndLive(t *testing.T) {
	release := make(chan struct{})
	stub := func(ctx context.Context, c sim.Config) (*sim.Result, error) {
		<-release
		return fakeResult(c), nil
	}
	_, hs := newTestServer(t, nil, stub)
	_, st := submit(t, hs, tinySpec)

	// Connect while running: must see the backlog (accepted, queued, ...)
	// and then live events through to done.
	req, _ := http.NewRequest("GET", hs.URL+"/jobs/"+st.ID+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content-type %q", ct)
	}
	go close(release)
	kinds := readSSEKinds(t, resp.Body)
	wantPrefix := []string{"accepted", "queued", "started"}
	for i, k := range wantPrefix {
		if i >= len(kinds) || kinds[i] != k {
			t.Fatalf("event stream %v, want prefix %v", kinds, wantPrefix)
		}
	}
	if kinds[len(kinds)-1] != "done" {
		t.Fatalf("stream ended with %q, want done", kinds[len(kinds)-1])
	}

	// Reconnect after completion: the full backlog replays (survives the
	// first client's disconnect), and Last-Event-ID resumes mid-stream.
	resp2, err := http.Get(hs.URL + "/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	kinds2 := readSSEKinds(t, resp2.Body)
	if len(kinds2) != len(kinds) {
		t.Fatalf("replay saw %d events, live saw %d", len(kinds2), len(kinds))
	}
	req3, _ := http.NewRequest("GET", hs.URL+"/jobs/"+st.ID+"/events", nil)
	req3.Header.Set("Last-Event-ID", "2")
	resp3, err := http.DefaultClient.Do(req3)
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	kinds3 := readSSEKinds(t, resp3.Body)
	if len(kinds3) != len(kinds)-2 || kinds3[0] != "started" {
		t.Fatalf("Last-Event-ID resume saw %v", kinds3)
	}
}

// readSSEKinds consumes an event stream until EOF, returning event kinds.
func readSSEKinds(t *testing.T, r interface{ Read([]byte) (int, error) }) []string {
	t.Helper()
	var kinds []string
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		if line := sc.Text(); strings.HasPrefix(line, "event: ") {
			kinds = append(kinds, strings.TrimPrefix(line, "event: "))
		}
	}
	return kinds
}

func TestHealthReadyMetricsAndDrain(t *testing.T) {
	release := make(chan struct{})
	stub := func(ctx context.Context, c sim.Config) (*sim.Result, error) {
		select {
		case <-release:
			return fakeResult(c), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	s, hs := newTestServer(t, func(c *Config) { c.Parallel = 1 }, stub)

	for _, ep := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(hs.URL + ep)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s = %d", ep, resp.StatusCode)
		}
	}
	_, st := submit(t, hs, tinySpec)
	waitState(t, hs, st.ID, StateRunning)

	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	body := buf.String()
	for _, want := range []string{"ptmcd.jobs_accepted 1", "ptmcd.jobs_inflight 1", "ptmcd.draining 0"} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, body)
		}
	}

	// Drain with a job mid-run: it is cancelled (not failed), stays
	// accepted in the WAL, and the daemon stops accepting.
	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(hs.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == 503 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("readyz never flipped to 503 during drain")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if code, _ := submit(t, hs, `{"workload":"mcf06","schemes":["ptmc"],"cores":2,"warmup_instr":100,"measure_instr":200}`); code != 503 {
		t.Fatalf("submit during drain = %d, want 503", code)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}

	// The interrupted job replays on the next boot and completes.
	s2, err := New(Config{Dir: s.cfg.Dir, Parallel: 1,
		RunSim: func(ctx context.Context, c sim.Config) (*sim.Result, error) {
			return fakeResult(c), nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	hs2 := httptest.NewServer(s2.Handler())
	defer hs2.Close()
	fin := waitState(t, hs2, st.ID, StateDone)
	if !fin.Replayed {
		t.Error("job not marked replayed after restart")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s2.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestRunKeyDropsUnreadPointFields: a job's per-scheme run key keeps only
// the point fields that scheme reads, so an uncompressed run at a
// non-default LLP size is the plain uncompressed run (the daemon's
// in-flight dedup shares it), while PTMC's run at that size is not.
func TestRunKeyDropsUnreadPointFields(t *testing.T) {
	spec := func(body string) JobSpec {
		var s JobSpec
		if err := json.Unmarshal([]byte(body), &s); err != nil {
			t.Fatal(err)
		}
		if err := s.Normalize(); err != nil {
			t.Fatal(err)
		}
		return s
	}
	plain := spec(`{"workload":"lbm06","schemes":["uncompressed"]}`)
	llp := spec(`{"workload":"lbm06","schemes":["uncompressed"],"llp_entries":64}`)
	if a, b := llp.Spec.Key(sim.SchemeUncompressed), plain.Spec.Key(sim.SchemeUncompressed); a != b {
		t.Errorf("uncompressed run key at llp_entries 64 = %s, want the plain key %s", a, b)
	}
	if a, b := llp.Spec.Key(sim.SchemePTMC), plain.Spec.Key(sim.SchemePTMC); a == b {
		t.Errorf("ptmc run key ignores llp_entries: %s", a)
	}
}

// TestIntegrityErrorFailsJob: a result that reports an integrity error is
// not a result. The job settles failed with kind sim and no artifact is
// written, though the simulator itself returned no error.
func TestIntegrityErrorFailsJob(t *testing.T) {
	stub := func(ctx context.Context, c sim.Config) (*sim.Result, error) {
		r := fakeResult(c)
		if c.Scheme == sim.SchemePTMC {
			r.Mem.IntegrityErrs = 1
		}
		return r, nil
	}
	s, hs := newTestServer(t, nil, stub)
	_, st := submit(t, hs, tinySpec)
	fin := waitState(t, hs, st.ID, StateFailed)
	if fin.FailKind != FailKindSim || !strings.Contains(fin.Error, "ptmc: 1 integrity errors") {
		t.Fatalf("fail kind %q err %q, want sim with ptmc's integrity error", fin.FailKind, fin.Error)
	}
	if s.store.HasResult(st.ID) {
		t.Error("a job whose run read back wrong data persisted an artifact")
	}
}

// TestJobSchemesRunConcurrently: with two pool slots, a two-scheme job
// runs both schemes at once. The stub holds each scheme until both have
// started, so a job that ran its schemes one after another times out.
func TestJobSchemesRunConcurrently(t *testing.T) {
	var started atomic.Int32
	both := make(chan struct{})
	stub := func(ctx context.Context, c sim.Config) (*sim.Result, error) {
		if started.Add(1) == 2 {
			close(both)
		}
		select {
		case <-both:
			return fakeResult(c), nil
		case <-time.After(3 * time.Second):
			return nil, errors.New("schemes ran one at a time")
		}
	}
	_, hs := newTestServer(t, func(c *Config) { c.Parallel = 2 }, stub)
	_, st := submit(t, hs, tinySpec)
	if fin := waitState(t, hs, st.ID, StateDone); fin.SchemesDone != 2 {
		t.Fatalf("schemes_done = %d, want 2", fin.SchemesDone)
	}
}

// TestJobReportsLowestFailingScheme: when several schemes of one job fail,
// the job reports the first failing scheme in matrix order, as a serial
// loop would, even though a later scheme failed sooner.
func TestJobReportsLowestFailingScheme(t *testing.T) {
	stub := func(ctx context.Context, c sim.Config) (*sim.Result, error) {
		switch c.Scheme {
		case sim.SchemePTMC:
			time.Sleep(50 * time.Millisecond)
			return nil, errors.New("second failed")
		case sim.SchemeTableTMC:
			return nil, errors.New("third failed")
		}
		return fakeResult(c), nil
	}
	_, hs := newTestServer(t, func(c *Config) { c.Parallel = 3 }, stub)
	_, st := submit(t, hs, `{"workload":"lbm06","schemes":["uncompressed","ptmc","table-tmc"],"cores":2,"warmup_instr":100,"measure_instr":200}`)
	fin := waitState(t, hs, st.ID, StateFailed)
	if fin.FailKind != FailKindSim || fin.Error != "ptmc: second failed" {
		t.Fatalf("fail kind %q err %q, want sim %q", fin.FailKind, fin.Error, "ptmc: second failed")
	}
}
