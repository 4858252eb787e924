package server

// Chaos campaign for the durable job queue. Each trial boots a daemon over
// one on-disk store with tiny WAL segments (so rotation and live
// compaction run constantly), submits jobs and the occasional sweep, then
// kills it rudely: an injected store crash at a random WAL point
// (before-append / after-write / after-sync / after-result / mid-compact),
// a mid-run drain (SIGTERM), or an abrupt stop (kill -9), optionally
// followed by garbage appended to the newest segment's tail (a torn
// in-progress record — the only tear a fsync'd append-only log can suffer).
// A final clean boot replays the store and every job AND sweep
// ACKNOWLEDGED during the trial is adjudicated:
//
//	recovered — done, result artifact served
//	degraded  — failed with a typed kind (panic/timeout/canceled/sim)
//	LOST      — anything else: unknown to the restarted daemon, or never
//	            reaching a terminal state
//
// The bar is zero LOST across the whole campaign. The driver asserts
// >= 200 trials (ISSUE acceptance).

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"ptmc/internal/sim"
)

const chaosTrials = 200

// chaosBehavior fixes what the fake simulator does for one scheme key, so
// a job re-run after a crash meets the same simulator it met before
// (determinism is what makes replay safe).
type chaosBehavior int

const (
	behaveOK      chaosBehavior = iota
	behaveSlowOK                // waits a few ms (or ctx) before succeeding
	behaveFailSim               // deterministic simulator error -> typed "sim"
	numBehaviors
)

// chaosSim is the per-trial fake simulator: behavior assigned per
// (workload, scheme, seed) point on first sight and sticky thereafter.
type chaosSim struct {
	mu       sync.Mutex
	rng      *rand.Rand // guarded by mu; only used to assign behaviors
	behave   map[string]chaosBehavior
	attempts map[string]int
}

func newChaosSim(seed int64) *chaosSim {
	return &chaosSim{rng: rand.New(rand.NewSource(seed)),
		behave: map[string]chaosBehavior{}, attempts: map[string]int{}}
}

func (c *chaosSim) run(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
	key := fmt.Sprintf("%s|%s|%d", cfg.Workload, cfg.Scheme, cfg.Seed)
	c.mu.Lock()
	b, ok := c.behave[key]
	if !ok {
		b = chaosBehavior(c.rng.Intn(int(numBehaviors)))
		c.behave[key] = b
	}
	c.attempts[key]++
	n := c.attempts[key]
	c.mu.Unlock()

	switch b {
	case behaveSlowOK:
		select {
		case <-time.After(time.Duration(1+n%5) * time.Millisecond):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	case behaveFailSim:
		return nil, fmt.Errorf("chaos: deterministic sim failure for %s", key)
	}
	return fakeResult(cfg), nil
}

// chaosTrial is one full crash/recover cycle over a single store dir.
type chaosTrial struct {
	t    *testing.T
	rng  *rand.Rand
	dir  string
	sims *chaosSim
	// acked maps job id -> true for every submission the daemon
	// acknowledged (HTTP 202 or 200). These are the jobs it must never lose.
	acked map[string]bool
	// ackedSweeps holds every acknowledged sweep id: a restarted daemon
	// must finish each one and serve its aggregate artifact.
	ackedSweeps map[string]bool
}

// chaosSegBytes keeps segments tiny so every trial exercises rotation and
// live compaction, not just the append path.
const chaosSegBytes = 512

func (c *chaosTrial) boot(armCrash bool) (*Server, *httptest.Server) {
	store, err := OpenStoreSegmented(c.dir, chaosSegBytes)
	if err != nil {
		c.t.Fatalf("open store over %s: %v", c.dir, err)
	}
	if armCrash {
		// Arm a one-shot crash: after a random number of WAL touches, die
		// at a random point. The store wedges (ErrStoreDead) exactly as if
		// the process were gone. Armed before newFromStore so no worker
		// goroutine races the hook installation.
		points := []CrashPoint{CrashBeforeAppend, CrashAfterWrite,
			CrashAfterSync, CrashAfterResult, CrashDuringCompact}
		at := points[c.rng.Intn(len(points))]
		fuse := c.rng.Intn(5)
		var mu sync.Mutex
		store.crash = func(p CrashPoint) error {
			mu.Lock()
			defer mu.Unlock()
			if p != at {
				return nil
			}
			if fuse > 0 {
				fuse--
				return nil
			}
			return errors.New("chaos: injected crash")
		}
	}
	s, err := newFromStore(Config{
		Dir:      c.dir,
		Workers:  1 + c.rng.Intn(2),
		Parallel: 2,
		QueueCap: 16,
		Backoff:  time.Millisecond,
		RunSim:   c.sims.run,
	}, store)
	if err != nil {
		c.t.Fatalf("boot over %s: %v", c.dir, err)
	}
	return s, httptest.NewServer(s.Handler())
}

// submitSome fires 1-3 random job specs, recording which were acked.
// Roughly every third call it also rides a small sweep along, drawn from
// the same workload/seed pools so chaosSim behaviors stay sticky across
// plain jobs, sweep children, and re-runs after a crash.
func (c *chaosTrial) submitSome(hs *httptest.Server) {
	workloads := []string{"lbm06", "mcf06"}
	schemeSets := [][]string{
		{sim.SchemeUncompressed},
		{sim.SchemePTMC},
		{sim.SchemeUncompressed, sim.SchemePTMC},
	}
	if c.rng.Intn(3) == 0 {
		c.submitSweep(hs, workloads)
	}
	for n := 1 + c.rng.Intn(3); n > 0; n-- {
		spec := JobSpec{
			Spec: sim.Spec{Workload: workloads[c.rng.Intn(len(workloads))],
				Cores: 2, Warmup: 100, Measure: 200, Seed: int64(1 + c.rng.Intn(6))},
			Schemes: schemeSets[c.rng.Intn(len(schemeSets))],
			Tenant:  "chaos",
		}
		body, _ := json.Marshal(spec)
		resp, err := http.Post(hs.URL+"/jobs", "application/json",
			strings.NewReader(string(body)))
		if err != nil {
			continue // daemon mid-death: not acked, no obligation
		}
		var st JobStatus
		json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
			if st.ID == "" {
				c.t.Fatalf("ack (%d) without job id", resp.StatusCode)
			}
			c.acked[st.ID] = true
		}
	}
}

// submitSweep posts one small sweep (1 workload x 1-2 schemes x 1-2 seeds)
// and records its id if acked; the restarted daemon owes it an aggregate.
func (c *chaosTrial) submitSweep(hs *httptest.Server, workloads []string) {
	schemes := []string{sim.SchemeUncompressed}
	if c.rng.Intn(2) == 0 {
		schemes = append(schemes, sim.SchemePTMC)
	}
	seeds := []int64{int64(1 + c.rng.Intn(6))}
	if c.rng.Intn(2) == 0 && seeds[0] < 6 {
		seeds = append(seeds, seeds[0]+1)
	}
	spec := SweepSpec{
		Workloads: []string{workloads[c.rng.Intn(len(workloads))]},
		Schemes:   schemes, Seeds: seeds,
		Cores: 2, Warmup: 100, Measure: 200,
		Tenant: "chaos",
	}
	body, _ := json.Marshal(spec)
	resp, err := http.Post(hs.URL+"/sweeps", "application/json",
		strings.NewReader(string(body)))
	if err != nil {
		return // daemon mid-death: not acked, no obligation
	}
	var st SweepStatus
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if st.ID == "" {
			c.t.Fatalf("sweep ack (%d) without id", resp.StatusCode)
		}
		c.ackedSweeps[st.ID] = true
	}
}

// stop kills the daemon with trial-chosen rudeness.
func (c *chaosTrial) stop(s *Server, hs *httptest.Server) {
	hs.Close()
	switch c.rng.Intn(3) {
	case 0:
		// kill -9: no checkpoint, no store close ceremony. Stop the worker
		// goroutines (the "process" must end inside one test binary) and
		// abandon the WAL exactly as it lies.
		s.queue.SetDraining(true)
		s.cancelRuns()
		s.workers.Wait()
		s.store.Close()
	default:
		// SIGTERM drain (possibly over a dead store — Drain tolerates it).
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil && !errors.Is(err, ErrStoreDead) {
			// A drain error over a wedged store is expected chaos; a hung
			// drain is a real bug.
			if errors.Is(err, context.DeadlineExceeded) {
				c.t.Fatalf("drain hung: %v", err)
			}
		}
	}
}

// tearTail appends garbage to the newest WAL segment — a torn in-progress
// record. Synced (acked) records all precede it, so this is exactly the
// tear a real kill -9 can produce. Only the highest-index segment is a
// legal target: sealed segments are never appended to.
func (c *chaosTrial) tearTail() {
	segs, _ := filepath.Glob(filepath.Join(c.dir, "wal-*.log"))
	if len(segs) == 0 {
		return // no WAL yet: nothing to tear
	}
	sort.Strings(segs) // zero-padded indices: lexicographic == numeric
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return
	}
	defer f.Close()
	if c.rng.Intn(2) == 0 {
		// Random garbage bytes.
		junk := make([]byte, 1+c.rng.Intn(40))
		c.rng.Read(junk)
		f.Write(junk)
	} else {
		// A plausible frame header whose payload never finished writing.
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[0:], uint32(100+c.rng.Intn(500)))
		binary.LittleEndian.PutUint32(hdr[4:], c.rng.Uint32())
		f.Write(hdr[:])
		partial := make([]byte, c.rng.Intn(20))
		c.rng.Read(partial)
		f.Write(partial)
	}
}

// adjudicate boots clean, waits for every acked job to settle, and
// classifies it. Returns (recovered, degraded); anything else fails the
// trial immediately as LOST.
func (c *chaosTrial) adjudicate() (recovered, degraded int) {
	s, hs := c.boot(false)
	defer func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			c.t.Fatalf("final drain: %v", err)
		}
	}()

	deadline := time.Now().Add(30 * time.Second)
	for id := range c.acked {
		for {
			resp, err := http.Get(hs.URL + "/jobs/" + id)
			if err != nil {
				c.t.Fatalf("status %s: %v", id, err)
			}
			var st JobStatus
			json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				c.t.Fatalf("LOST: acked job %s unknown after restart (%d)", id, resp.StatusCode)
			}
			switch st.State {
			case StateDone:
				// Recovered jobs must actually serve their artifact.
				r2, err := http.Get(hs.URL + "/jobs/" + id + "/result")
				if err != nil || r2.StatusCode != http.StatusOK {
					c.t.Fatalf("LOST: done job %s has no artifact (err=%v)", id, err)
				}
				var art ResultArtifact
				if err := json.NewDecoder(r2.Body).Decode(&art); err != nil ||
					len(art.Results) == 0 {
					c.t.Fatalf("LOST: job %s artifact unreadable: %v", id, err)
				}
				r2.Body.Close()
				recovered++
			case StateFailed:
				switch st.FailKind {
				case FailKindPanic, FailKindTimeout, FailKindCanceled, FailKindSim:
					degraded++
				default:
					c.t.Fatalf("LOST: job %s failed without a typed kind (%q)", id, st.FailKind)
				}
			default:
				if time.Now().After(deadline) {
					c.t.Fatalf("LOST: job %s stuck in %q after restart", id, st.State)
				}
				time.Sleep(2 * time.Millisecond)
				continue
			}
			break
		}
	}

	// Every acked sweep must finish and serve a well-formed aggregate whose
	// points are each done-with-result or failed with a typed kind.
	for id := range c.ackedSweeps {
		for {
			resp, err := http.Get(hs.URL + "/sweeps/" + id)
			if err != nil {
				c.t.Fatalf("sweep status %s: %v", id, err)
			}
			var st SweepStatus
			json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				c.t.Fatalf("LOST: acked sweep %s unknown after restart (%d)", id, resp.StatusCode)
			}
			if st.State != StateDone {
				if st.State == StateFailed {
					c.t.Fatalf("LOST: sweep %s failed outright (%s: %s)", id, st.FailKind, st.Error)
				}
				if time.Now().After(deadline) {
					c.t.Fatalf("LOST: sweep %s stuck in %q after restart", id, st.State)
				}
				time.Sleep(2 * time.Millisecond)
				continue
			}
			r2, err := http.Get(hs.URL + "/sweeps/" + id + "/result")
			if err != nil || r2.StatusCode != http.StatusOK {
				c.t.Fatalf("LOST: done sweep %s has no aggregate (err=%v)", id, err)
			}
			var art SweepArtifact
			if err := json.NewDecoder(r2.Body).Decode(&art); err != nil || len(art.Points) == 0 {
				c.t.Fatalf("LOST: sweep %s aggregate unreadable: %v", id, err)
			}
			r2.Body.Close()
			for _, p := range art.Points {
				switch p.State {
				case StateDone:
					if len(p.Result) == 0 {
						c.t.Fatalf("LOST: sweep %s point %s/%s/%d done without result",
							id, p.Workload, p.Scheme, p.Seed)
					}
					recovered++
				case StateFailed:
					switch p.FailKind {
					case FailKindPanic, FailKindTimeout, FailKindCanceled, FailKindSim:
						degraded++
					default:
						c.t.Fatalf("LOST: sweep %s point %s/%s/%d failed without a typed kind (%q)",
							id, p.Workload, p.Scheme, p.Seed, p.FailKind)
					}
				default:
					c.t.Fatalf("LOST: sweep %s settled with point %s/%s/%d in %q",
						id, p.Workload, p.Scheme, p.Seed, p.State)
				}
			}
			break
		}
	}
	return recovered, degraded
}

func TestChaosCampaign(t *testing.T) {
	trials := chaosTrials
	if testing.Short() {
		trials = 25
	}
	var recovered, degraded int
	for i := 0; i < trials; i++ {
		i := i
		ok := t.Run(fmt.Sprintf("trial%03d", i), func(t *testing.T) {
			rng := rand.New(rand.NewSource(0xC4A05 + int64(i)))
			trial := &chaosTrial{
				t: t, rng: rng, dir: t.TempDir(),
				sims:        newChaosSim(int64(i)),
				acked:       map[string]bool{},
				ackedSweeps: map[string]bool{},
			}
			// 1-2 rude lifecycles before the clean boot.
			for phase := 0; phase <= rng.Intn(2); phase++ {
				s, hs := trial.boot(rng.Intn(2) == 0)
				trial.submitSome(hs)
				// Let some work start (and maybe hit the armed crash).
				time.Sleep(time.Duration(rng.Intn(4)) * time.Millisecond)
				trial.submitSome(hs)
				trial.stop(s, hs)
				if rng.Intn(2) == 0 {
					trial.tearTail()
				}
			}
			r, d := trial.adjudicate()
			recovered += r
			degraded += d
		})
		if !ok {
			t.Fatalf("chaos campaign aborted at trial %d (LOST or stuck job)", i)
		}
	}
	t.Logf("chaos campaign: %d trials, %d jobs recovered, %d degraded (typed failure), 0 lost",
		trials, recovered, degraded)
	if recovered == 0 {
		t.Fatal("campaign exercised nothing: zero recovered jobs")
	}
}
