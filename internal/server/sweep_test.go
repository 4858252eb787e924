package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ptmc/internal/sim"
)

func submitSweep(t *testing.T, hs *httptest.Server, spec string) (int, SweepStatus) {
	t.Helper()
	resp, err := http.Post(hs.URL+"/sweeps", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st SweepStatus
	json.NewDecoder(resp.Body).Decode(&st)
	return resp.StatusCode, st
}

func waitSweep(t *testing.T, hs *httptest.Server, id string) SweepStatus {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(hs.URL + "/sweeps/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st SweepStatus
		json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if st.State == StateDone {
			return st
		}
		if st.State == StateFailed {
			t.Fatalf("sweep %s failed: %s: %s", id, st.FailKind, st.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("sweep %s never finished", id)
	return SweepStatus{}
}

func sweepArtifactBytes(t *testing.T, hs *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := http.Get(hs.URL + "/sweeps/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep result = %d", resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestSweepSpecNormalizeDefaultsAndBounds(t *testing.T) {
	sp := SweepSpec{Workloads: []string{"lbm06"}}
	if err := sp.Normalize(); err != nil {
		t.Fatal(err)
	}
	if len(sp.Schemes) != 1 || sp.Schemes[0] != sim.SchemeDynamicPTMC {
		t.Fatalf("default schemes = %v", sp.Schemes)
	}
	if len(sp.Seeds) != 1 || sp.Seeds[0] != sim.Default().Seed {
		t.Fatalf("default seeds = %v", sp.Seeds)
	}
	if sp.Tenant != "default" || sp.Cores == 0 || sp.Warmup == 0 || sp.Measure == 0 {
		t.Fatalf("shared knobs not normalized: %+v", sp)
	}

	bad := []SweepSpec{
		{},
		{Workloads: []string{"lbm06", "lbm06"}},
		{Workloads: []string{"lbm06"}, Seeds: []int64{3, 3}},
		{Workloads: []string{"no-such-workload"}},
		{Workloads: []string{"lbm06"}, Schemes: []string{"no-such-scheme"}},
		{Workloads: []string{"lbm06"}, Cores: 100000},
	}
	for i, sp := range bad {
		if err := sp.Normalize(); err == nil {
			t.Errorf("bad spec %d normalized without error", i)
		}
	}

	// The matrix bound rejects unbounded fan-out under one request.
	wide := SweepSpec{Workloads: []string{"lbm06", "mcf06"},
		Schemes: []string{"ptmc", "uncompressed"}}
	for i := int64(1); i <= maxSweepPoints/4+1; i++ {
		wide.Seeds = append(wide.Seeds, i)
	}
	if err := wide.Normalize(); err == nil {
		t.Fatal("over-wide sweep normalized without error")
	}
}

func TestSweepChildrenDeterministicMatrixOrder(t *testing.T) {
	sp := SweepSpec{
		Workloads: []string{"lbm06", "mcf06"},
		Schemes:   []string{"uncompressed", "ptmc"},
		Seeds:     []int64{1, 2},
		Cores:     2, Warmup: 100, Measure: 200,
	}
	if err := sp.Normalize(); err != nil {
		t.Fatal(err)
	}
	ids, specs := sp.children()
	if len(ids) != 8 {
		t.Fatalf("fan-out %d points, want 8", len(ids))
	}
	k := 0
	for _, w := range sp.Workloads {
		for _, sc := range sp.Schemes {
			for _, sd := range sp.Seeds {
				got := specs[k]
				if got.Workload != w || len(got.Schemes) != 1 || got.Schemes[0] != sc || got.Seed != sd {
					t.Fatalf("child %d = %+v, want %s/%s/%d", k, got, w, sc, sd)
				}
				if got.Priority != PrioritySweepChild {
					t.Fatalf("child %d priority %q, want sweep-child", k, got.Priority)
				}
				if ids[k] != got.Key() {
					t.Fatalf("child %d id mismatch", k)
				}
				k++
			}
		}
	}
	// Same spec, same fan-out — the resume contract in miniature.
	ids2, _ := sp.children()
	if fmt.Sprint(ids) != fmt.Sprint(ids2) {
		t.Fatal("children not deterministic")
	}
}

func TestSweepEndToEnd(t *testing.T) {
	s, hs := newTestServer(t, nil, nil)
	body := `{"workloads":["lbm06","mcf06"],"schemes":["uncompressed","ptmc"],"seeds":[1,2],"cores":2,"warmup_instr":100,"measure_instr":200}`
	code, st := submitSweep(t, hs, body)
	if code != http.StatusAccepted {
		t.Fatalf("sweep submit = %d, want 202", code)
	}
	if st.Points != 8 {
		t.Fatalf("points = %d, want 8", st.Points)
	}
	waitSweep(t, hs, st.ID)

	var art SweepArtifact
	if err := json.Unmarshal(sweepArtifactBytes(t, hs, st.ID), &art); err != nil {
		t.Fatal(err)
	}
	if len(art.Points) != 8 {
		t.Fatalf("artifact has %d points, want 8", len(art.Points))
	}
	for i, p := range art.Points {
		if p.State != StateDone || len(p.Result) == 0 {
			t.Fatalf("point %d (%s/%s/%d): state %s, result %d bytes",
				i, p.Workload, p.Scheme, p.Seed, p.State, len(p.Result))
		}
		// Each point's payload is the child's ordinary result artifact.
		var child ResultArtifact
		if err := json.Unmarshal(p.Result, &child); err != nil {
			t.Fatalf("point %d result: %v", i, err)
		}
		if child.ID != p.JobID {
			t.Fatalf("point %d: artifact id %s != job id %s", i, child.ID, p.JobID)
		}
	}

	// Idempotent resubmission: same matrix, same sweep, no new work.
	before := s.m.simsRun.Load()
	code2, st2 := submitSweep(t, hs, body)
	if code2 != http.StatusOK || st2.ID != st.ID {
		t.Fatalf("resubmit = %d id %s, want 200 with id %s", code2, st2.ID, st.ID)
	}
	if got := s.m.simsRun.Load(); got != before {
		t.Fatalf("resubmitted sweep ran %d extra sims", got-before)
	}
	// And the children are listed as ordinary jobs.
	resp, err := http.Get(hs.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var jobs []JobStatus
	json.NewDecoder(resp.Body).Decode(&jobs)
	if len(jobs) != 8 {
		t.Fatalf("listed %d jobs, want the 8 children", len(jobs))
	}
}

// TestSweepSeedZeroIsTheDefaultSeed: seed 0 means the default seed on a
// sweep exactly as on a job, so the two dedupe, and seeds that collide
// after normalization are rejected. A sweep persisted with seed 0 (before
// sweeps normalized their seeds) derives its children with the default
// seed too.
func TestSweepSeedZeroIsTheDefaultSeed(t *testing.T) {
	s, hs := newTestServer(t, nil, nil)
	code, jst := submit(t, hs, `{"workload":"lbm06","schemes":["ptmc"],"cores":2,"warmup_instr":100,"measure_instr":200,"seed":0}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	waitState(t, hs, jst.ID, StateDone)
	if code, _ := submitSweep(t, hs, `{"workloads":["lbm06"],"schemes":["ptmc"],"seeds":[0,1],"cores":2,"warmup_instr":100,"measure_instr":200}`); code != http.StatusBadRequest {
		t.Fatalf("seeds [0,1] = %d, want 400 (they collide)", code)
	}

	before := s.m.simsRun.Load()
	_, st := submitSweep(t, hs, `{"workloads":["lbm06"],"schemes":["ptmc"],"seeds":[0],"cores":2,"warmup_instr":100,"measure_instr":200}`)
	waitSweep(t, hs, st.ID)
	var art SweepArtifact
	json.Unmarshal(sweepArtifactBytes(t, hs, st.ID), &art)
	if len(art.Points) != 1 || art.Points[0].JobID != jst.ID || art.Points[0].Seed != sim.Default().Seed {
		t.Fatalf("seed-0 sweep point = %+v, want job %s at the default seed", art.Points, jst.ID)
	}
	if got := s.m.simsRun.Load(); got != before {
		t.Fatalf("seed-0 sweep re-ran %d sims of the seed-0 job", got-before)
	}

	persisted := SweepSpec{Workloads: []string{"lbm06"}, Schemes: []string{"ptmc"}, Seeds: []int64{0},
		Cores: 2, Warmup: 100, Measure: 200, Tenant: "default"}
	ids, specs := persisted.children()
	if specs[0].Seed != sim.Default().Seed || ids[0] != jst.ID {
		t.Fatalf("persisted seed-0 child = seed %d id %s, want seed %d id %s",
			specs[0].Seed, ids[0], sim.Default().Seed, jst.ID)
	}
}

// TestSweepAdoptsExistingJob: a sweep point whose content key matches an
// already-finished job reuses it — the point costs zero simulations.
func TestSweepAdoptsExistingJob(t *testing.T) {
	s, hs := newTestServer(t, nil, nil)
	code, jst := submit(t, hs, `{"workload":"lbm06","schemes":["ptmc"],"cores":2,"warmup_instr":100,"measure_instr":200,"seed":7}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	waitState(t, hs, jst.ID, StateDone)

	before := s.m.simsRun.Load()
	_, st := submitSweep(t, hs, `{"workloads":["lbm06"],"schemes":["ptmc"],"seeds":[7],"cores":2,"warmup_instr":100,"measure_instr":200}`)
	waitSweep(t, hs, st.ID)
	var art SweepArtifact
	json.Unmarshal(sweepArtifactBytes(t, hs, st.ID), &art)
	if len(art.Points) != 1 || art.Points[0].JobID != jst.ID {
		t.Fatalf("sweep point job %s, want adopted %s", art.Points[0].JobID, jst.ID)
	}
	if got := s.m.simsRun.Load(); got != before {
		t.Fatalf("adopted point re-ran %d sims", got-before)
	}
}

// bootServer starts a daemon over dir and kill9 tears it down the way a
// SIGKILL would: in-flight runs cancelled mid-simulation, nothing
// checkpointed, store dropped — only what the WAL already holds survives.
func bootServer(t *testing.T, dir string, stub func(ctx context.Context, c sim.Config) (*sim.Result, error)) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(Config{Dir: dir, Workers: 2, Parallel: 2, QueueCap: 64, RunSim: stub})
	if err != nil {
		t.Fatal(err)
	}
	return s, httptest.NewServer(s.Handler())
}

func kill9(s *Server, hs *httptest.Server) {
	hs.Close()
	s.queue.SetDraining(true)
	s.cancelRuns()
	s.workers.Wait()
	s.store.Close()
}

// TestSweepResumesAfterKillWithoutRerunning is the sweep-resume proof the
// durability contract promises: a 1×3×3 sweep is killed mid-flight after
// three points landed; the restarted daemon finishes the sweep, runs ONLY
// the missing points (zero duplicate simulations, asserted two ways), and
// the aggregate artifact is byte-identical to an uninterrupted run's.
func TestSweepResumesAfterKillWithoutRerunning(t *testing.T) {
	const body = `{"workloads":["lbm06"],"schemes":["uncompressed","ptmc","dynamic-ptmc"],"seeds":[1,2,3],"cores":2,"warmup_instr":100,"measure_instr":200}`
	const points = 9

	// Reference: the same sweep, never interrupted.
	refS, refHS := bootServer(t, t.TempDir(), func(ctx context.Context, c sim.Config) (*sim.Result, error) {
		return fakeResult(c), nil
	})
	_, refSt := submitSweep(t, refHS, body)
	waitSweep(t, refHS, refSt.ID)
	want := sweepArtifactBytes(t, refHS, refSt.ID)
	kill9(refS, refHS)

	// Life 1: the first three points complete instantly, the rest block
	// until the kill cancels them.
	dir := t.TempDir()
	tokens := make(chan struct{}, 3)
	for i := 0; i < 3; i++ {
		tokens <- struct{}{}
	}
	s1, hs1 := bootServer(t, dir, func(ctx context.Context, c sim.Config) (*sim.Result, error) {
		select {
		case <-tokens:
			return fakeResult(c), nil
		default:
		}
		<-ctx.Done()
		return nil, ctx.Err()
	})
	_, st := submitSweep(t, hs1, body)
	if st.Points != points {
		t.Fatalf("points = %d, want %d", st.Points, points)
	}
	deadline := time.Now().Add(10 * time.Second)
	for s1.m.completed.Load() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d points settled before kill", s1.m.completed.Load())
		}
		time.Sleep(2 * time.Millisecond)
	}
	kill9(s1, hs1)

	// What landed before the kill is exactly what life 2 must NOT re-run.
	preDone := map[string]bool{}
	files, err := filepath.Glob(filepath.Join(dir, "results", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		name := strings.TrimSuffix(filepath.Base(f), ".json")
		if !strings.HasSuffix(name, ".trace") && name != st.ID {
			preDone[name] = true
		}
	}
	if len(preDone) < 3 {
		t.Fatalf("%d artifacts on disk after kill, want >= 3", len(preDone))
	}

	// Life 2: every invocation is recorded; artifact-backed points must
	// never reach the simulator again.
	var mu sync.Mutex
	var invoked []sim.Config
	s2, hs2 := bootServer(t, dir, func(ctx context.Context, c sim.Config) (*sim.Result, error) {
		mu.Lock()
		invoked = append(invoked, c)
		mu.Unlock()
		return fakeResult(c), nil
	})
	defer kill9(s2, hs2)
	waitSweep(t, hs2, st.ID)
	got := sweepArtifactBytes(t, hs2, st.ID)

	if !bytes.Equal(got, want) {
		t.Fatalf("resumed aggregate differs from uninterrupted run:\n got %d bytes: %.200s\nwant %d bytes: %.200s",
			len(got), got, len(want), want)
	}
	if n := int(s2.m.simsRun.Load()); n != points-len(preDone) {
		t.Fatalf("life 2 ran %d sims, want exactly the %d missing points",
			n, points-len(preDone))
	}
	mu.Lock()
	defer mu.Unlock()
	for _, c := range invoked {
		key := (&JobSpec{
			Spec: sim.Spec{Workload: c.Workload, Cores: c.Cores, Warmup: c.WarmupInstr,
				Measure: c.MeasureInstr, Seed: c.Seed, Trace: c.Trace},
			Schemes: []string{c.Scheme}, Tenant: "default", Priority: PrioritySweepChild,
		}).Key()
		if preDone[key] {
			t.Errorf("point %s/%s/%d re-simulated despite its artifact surviving the kill",
				c.Workload, c.Scheme, c.Seed)
		}
	}
}
