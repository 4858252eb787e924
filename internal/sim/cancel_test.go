package sim

// Checkpoint cancellation: the daemon's graceful drain (internal/server)
// relies on a cancelled context stopping a live simulation at its next
// checkpoint (every 4096 loop iterations) with the controller's compressed
// image left consistent.

import (
	"context"
	"errors"
	"testing"
	"time"

	"ptmc/internal/mem"
	"ptmc/internal/memctrl"
)

// TestCancellationAtEpochBarriers cancels a mid-flight run on the
// per-cycle reference loop, on the production cycle-skipping loop, and on
// the production loop with eight heterogeneous cores (mix1, every core's
// pages initialized lazily), then verifies the compressed image.
func TestCancellationAtEpochBarriers(t *testing.T) {
	cases := []struct {
		name      string
		workload  string
		cores     int
		reference bool
	}{
		{"reference", "lbm06", 2, true},
		{"production", "lbm06", 2, false},
		{"mix1", "mix1", 8, false},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			cfg := quickCfg(c.workload, SchemeDynamicPTMC)
			cfg.Cores = c.cores
			cfg.WarmupInstr = 0
			// Far more work than can finish before the cancel lands: the
			// run must die at a checkpoint, not at the finish line.
			cfg.MeasureInstr = 50_000_000
			s, err := newSimulator(cfg, c.reference)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() {
				_, rerr := s.RunContext(ctx)
				done <- rerr
			}()
			time.Sleep(10 * time.Millisecond) // let the run get mid-flight
			cancel()

			select {
			case rerr := <-done:
				if !errors.Is(rerr, context.Canceled) {
					t.Fatalf("RunContext returned %v, want context.Canceled", rerr)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("RunContext did not return within 5s of cancellation")
			}

			// No store corruption: the controller's compressed image still
			// verifies end to end. Lines resident in the (inclusive) LLC are
			// allowed to be stale in memory — the standard verifier oracle.
			p, ok := s.Controller().(*memctrl.PTMC)
			if !ok {
				t.Fatalf("controller is %T, want *memctrl.PTMC", s.Controller())
			}
			inLLC := func(a mem.LineAddr) bool {
				_, in := s.l3.Probe(a)
				return in
			}
			if _, verr := p.VerifyImage(inLLC); verr != nil {
				t.Fatalf("image corrupt after mid-run cancellation: %v", verr)
			}
		})
	}
}

// TestCancellationDuringWarmup checks the warmup leg propagates ctx errors
// through its wrap (the daemon classifies on errors.Is, not string match).
func TestCancellationDuringWarmup(t *testing.T) {
	cfg := quickCfg("mcf06", SchemeUncompressed)
	cfg.WarmupInstr = 50_000_000
	cfg.MeasureInstr = 1000
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
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case rerr := <-done:
		if !errors.Is(rerr, context.Canceled) {
			t.Fatalf("warmup cancellation returned %v, want context.Canceled", rerr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("warmup cancellation never returned")
	}
}

// TestCancellationAlreadyDone: a pre-cancelled context aborts before any
// cycle executes, on both the production and the reference loop.
func TestCancellationAlreadyDone(t *testing.T) {
	for _, reference := range []bool{false, true} {
		s, err := newSimulator(quickCfg("lbm06", SchemePTMC), reference)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := s.RunContext(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("reference=%t: pre-cancelled run returned %v", reference, err)
		}
	}
}
