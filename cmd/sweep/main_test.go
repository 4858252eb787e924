package main

import (
	"context"
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
	rows, errs, sims := sweep(context.Background(), run, ptmc.SchemeDynamicPTMC, points, 2, 0, obs.Flags{})
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
