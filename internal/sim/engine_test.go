package sim

// The run loop's acceptance tests. The production path (run, lazy
// first-touch pages, DRAM engine mode) must reproduce the test-only
// reference path (runReference, eager InitLine page init, scan-every-
// channel DRAM) byte for byte, and every point must be deterministic
// under a repeated run with the same seed.

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"ptmc/internal/trace"
	"ptmc/internal/workload"
)

// runPath runs cfg on the production path or the reference path.
func runPath(t *testing.T, cfg Config, reference bool) *Result {
	t.Helper()
	s, err := newSimulator(cfg, reference)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatalf("reference=%t: %v", reference, err)
	}
	return r
}

// checkDeterministic runs cfg twice on each path: the two runs of one path
// must agree (nondeterminism that would diverge identically on both paths
// — map iteration, uninitialized state — shows here), and the production
// result must DeepEqual the reference result, obs metrics snapshots
// included.
func checkDeterministic(t *testing.T, cfg Config) {
	t.Helper()
	var results [2]*Result
	for i, reference := range []bool{true, false} {
		r1 := runPath(t, cfg, reference)
		r2 := runPath(t, cfg, reference)
		if r1.Cycles != r2.Cycles {
			t.Errorf("reference=%t: end cycle differs across identical runs: %d vs %d",
				reference, r1.Cycles, r2.Cycles)
		}
		if !reflect.DeepEqual(r1, r2) {
			t.Errorf("reference=%t: result differs across identical runs", reference)
		}
		results[i] = r1
	}
	ref, got := results[0], results[1]
	if reflect.DeepEqual(ref, got) {
		return
	}
	t.Errorf("production result diverges from the reference path")
	if ref.String() != got.String() {
		t.Errorf("  report:\n  %s\n  vs\n  %s", ref.String(), got.String())
	}
	if !reflect.DeepEqual(ref.DRAM, got.DRAM) {
		t.Errorf("  DRAM stats: %+v\n  vs %+v", ref.DRAM, got.DRAM)
	}
	if !reflect.DeepEqual(ref.Mem, got.Mem) {
		t.Errorf("  Mem stats: %+v\n  vs %+v", ref.Mem, got.Mem)
	}
	if !reflect.DeepEqual(ref.Metrics, got.Metrics) {
		t.Errorf("  obs metrics snapshots diverge")
	}
}

// TestEventDeterminismMatrix covers all seven schemes × {reference,
// production}, plus a heterogeneous 8-core mix (every core's stream
// distinct, so any ordering leak in page init or idle-channel accounting
// surfaces) and a trace replay, whose sources lack FillLineInit and so
// take the eager architectural-mirror branch of initPage.
func TestEventDeterminismMatrix(t *testing.T) {
	for _, scheme := range Schemes() {
		t.Run(scheme, func(t *testing.T) {
			cfg := Default()
			cfg.Workload = "lbm06"
			cfg.Scheme = scheme
			cfg.WarmupInstr = 10_000
			cfg.MeasureInstr = 10_000
			cfg.MetricsInterval = 25_000
			checkDeterministic(t, cfg)
		})
	}
	t.Run("mix1", func(t *testing.T) {
		cfg := Default()
		cfg.Workload = "mix1"
		cfg.Scheme = SchemeDynamicPTMC
		cfg.WarmupInstr = 15_000
		cfg.MeasureInstr = 15_000
		checkDeterministic(t, cfg)
	})
	t.Run("trace-replay", func(t *testing.T) {
		cfg := traceReplayCfg(t, SchemeDynamicPTMC)
		cfg.MetricsInterval = 25_000
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if s.origins != nil {
			t.Fatal("trace-replay sources took the lazy page path; want the eager mirror")
		}
		checkDeterministic(t, cfg)
	})
}

// traceReplayCfg records libquantum06's access stream and returns a
// 2-core configuration replaying it, core 1 staggered half a trace ahead.
func traceReplayCfg(t *testing.T, scheme string) Config {
	t.Helper()
	wl, err := workload.Lookup("libquantum06")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, wl.Mix, 5)
	if err != nil {
		t.Fatal(err)
	}
	capture := trace.NewCapture(wl.NewStream(5), w)
	for i := 0; i < 60_000; i++ {
		capture.Next()
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	cfg := Default()
	cfg.Workload = "trace-test"
	cfg.Scheme = scheme
	cfg.Cores = 2
	cfg.L3Bytes = 1 << 20
	cfg.WarmupInstr = 20_000
	cfg.MeasureInstr = 50_000
	cfg.Sources = func(core int, seed int64) (workload.Source, error) {
		r, err := trace.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		rep, err := trace.NewReplay(r)
		if err != nil {
			return nil, err
		}
		for i := 0; i < core*rep.Len()/2; i++ {
			rep.Next() // stagger cores
		}
		return rep, nil
	}
	return cfg
}

// TestEventMaxCyclesConsistent: run clamps its jumps at the deadline, so a
// run that exhausts its cycle budget fails with the same error, at the
// same cycle, as the per-cycle reference loop.
func TestEventMaxCyclesConsistent(t *testing.T) {
	run := func(reference bool) (int64, error) {
		cfg := quickCfg("lbm06", SchemeUncompressed)
		cfg.WarmupInstr = 0
		s, err := newSimulator(cfg, reference)
		if err != nil {
			t.Fatal(err)
		}
		// Far too small a budget to retire anything meaningful.
		const maxCycles = 5_000
		loop := s.run
		if reference {
			loop = s.runReference
		}
		rerr := loop(context.Background(), cfg.MeasureInstr, maxCycles)
		return s.now, rerr
	}
	refNow, refErr := run(true)
	gotNow, gotErr := run(false)
	if refErr == nil || gotErr == nil {
		t.Fatalf("expected both loops to exhaust the budget; reference=%v run=%v", refErr, gotErr)
	}
	if refErr.Error() != gotErr.Error() {
		t.Errorf("error text diverges:\n  reference: %v\n  run:       %v", refErr, gotErr)
	}
	if refNow != gotNow {
		t.Errorf("abort cycle diverges: reference %d vs run %d", refNow, gotNow)
	}
}

// TestEventCancellation: the iteration-counted ctx poll interrupts run
// promptly even though it skips cycles (an `s.now&4095 == 0` poll could be
// jumped over indefinitely). lbm06 streams; mcf06 chases pointers, so its
// cores sit stalled on DRAM and the loop skips the most cycles.
func TestEventCancellation(t *testing.T) {
	for _, workload := range []string{"lbm06", "mcf06"} {
		workload := workload
		t.Run(workload, func(t *testing.T) {
			cfg := quickCfg(workload, SchemeDynamicPTMC)
			cfg.WarmupInstr = 0
			cfg.MeasureInstr = 50_000_000 // cannot finish before the cancel
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() {
				_, rerr := s.RunContext(ctx)
				done <- rerr
			}()
			time.Sleep(10 * time.Millisecond)
			cancel()
			select {
			case rerr := <-done:
				if !errors.Is(rerr, context.Canceled) {
					t.Fatalf("RunContext returned %v, want context.Canceled", rerr)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("RunContext did not return within 5s of cancellation")
			}
		})
	}
}
