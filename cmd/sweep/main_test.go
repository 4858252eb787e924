package main

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"ptmc"
	"ptmc/internal/obs"
	"ptmc/internal/sim"
)

// TestSweepSharesBaseline runs the llp table at a tiny horizon. No
// uncompressed run reads the LLP size, so the six points share one
// baseline: seven simulations, not twelve. Every row must still equal an
// independent run of its point.
func TestSweepSharesBaseline(t *testing.T) {
	run := sim.Spec{Workload: "lbm06", Cores: 2, Warmup: 2000, Measure: 2000, Seed: 1}
	points := kinds["llp"]
	rows, errs, sims := sweep(context.Background(), run, ptmc.SchemeDynamicPTMC, points, 2, 0, obs.Flags{}, nil)
	for i, p := range points {
		if errs[i] != nil {
			t.Fatalf("%s: %v", p.label, errs[i])
		}
		cfg := p.spec.Or(run).Config(ptmc.SchemeDynamicPTMC)
		r, err := ptmc.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Scheme = ptmc.SchemeUncompressed
		b, err := ptmc.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if want := row(p.label, r, b); rows[i] != want {
			t.Errorf("row %d = %q, want the independent run's %q", i, rows[i], want)
		}
	}
	if want := len(points) + 1; sims != want {
		t.Errorf("llp sweep ran %d simulations, want %d (one shared baseline)", sims, want)
	}
}

// TestSweepFailsIntegrityErrors: a point whose scheme-under-test result
// reports an integrity error has no speedup to print. It is listed as
// failed, every other point still prints its row, and the sweep exits
// non-zero.
func TestSweepFailsIntegrityErrors(t *testing.T) {
	run := sim.Spec{Workload: "lbm06", Cores: 2, Warmup: 1000, Measure: 1000, Seed: 1}
	points := kinds["channels"]
	simulate := func(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
		r, err := sim.RunContext(ctx, cfg)
		if err == nil && cfg.Scheme == ptmc.SchemeDynamicPTMC && cfg.DRAM.Channels == 2 {
			r.Mem.IntegrityErrs = 1
		}
		return r, err
	}
	rows, errs, _ := sweep(context.Background(), run, ptmc.SchemeDynamicPTMC, points, 2, 0, obs.Flags{}, simulate)
	for i, p := range points {
		if bad := p.label == "channels=2"; bad != (errs[i] != nil) {
			t.Errorf("%s: err = %v, want failed = %t", p.label, errs[i], bad)
		}
	}
	if i := 1; !errors.Is(errs[i], sim.ErrIntegrity) {
		t.Errorf("%s: err = %v, want an integrity error", points[i].label, errs[i])
	}
	var stdout, stderr bytes.Buffer
	if code := report(&stdout, &stderr, rows, errs, 0); code == 0 {
		t.Error("sweep with a failed point exits 0")
	}
	if strings.Contains(stdout.String(), "channels=2") || strings.Count(stdout.String(), "\n") != len(points)-1 {
		t.Errorf("stdout should hold the %d good rows only:\n%s", len(points)-1, stdout.String())
	}
	if !strings.Contains(stderr.String(), "channels=2") {
		t.Errorf("stderr does not name the failed point:\n%s", stderr.String())
	}
}
