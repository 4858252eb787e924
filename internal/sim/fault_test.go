package sim

import (
	"context"
	"testing"

	"ptmc/internal/fault"
	"ptmc/internal/memctrl"
)

// TestFaultCampaignNoSilent is the tentpole property: across a mixed
// campaign every injected fault is detected or harmless — never silent.
func TestFaultCampaignNoSilent(t *testing.T) {
	rep, err := memctrl.RunFaultCampaign(context.Background(), memctrl.FaultConfig{
		Trials: 60, OpsPerTrial: 128, Lines: 1024, LLCBytes: 32 << 10, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Silent != 0 {
		t.Fatalf("silent corruptions: %d\n%s", rep.Silent, rep.Summary())
	}
	if got := len(rep.Trials); got == 0 {
		t.Fatal("campaign ran zero trials")
	}
	if rep.DetectedCounter+rep.DetectedVerify == 0 {
		t.Fatalf("campaign never detected anything — detectors are dead\n%s", rep.Summary())
	}
	if rep.Verified == 0 {
		t.Fatal("final verification pass covered zero lines")
	}
}

// TestFaultCampaignEveryKind runs a focused campaign per fault kind so a
// detector regression is attributed to the kind that slipped through.
func TestFaultCampaignEveryKind(t *testing.T) {
	for _, k := range fault.Kinds() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			t.Parallel()
			rep, err := memctrl.RunFaultCampaign(context.Background(), memctrl.FaultConfig{
				Trials: 12, OpsPerTrial: 96, Lines: 512, LLCBytes: 16 << 10,
				Seed: 3, Kinds: []fault.Kind{k},
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Silent != 0 {
				t.Fatalf("silent corruptions for %v: %d\n%s", k, rep.Silent, rep.Summary())
			}
		})
	}
}

// TestFaultCampaignDeterminism: same seed, same campaign — trial for trial.
func TestFaultCampaignDeterminism(t *testing.T) {
	run := func() *memctrl.FaultReport {
		rep, err := memctrl.RunFaultCampaign(context.Background(), memctrl.FaultConfig{
			Trials: 20, OpsPerTrial: 96, Lines: 512, LLCBytes: 16 << 10, Seed: 11,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if len(a.Trials) != len(b.Trials) {
		t.Fatalf("trial counts differ: %d vs %d", len(a.Trials), len(b.Trials))
	}
	for i := range a.Trials {
		if a.Trials[i] != b.Trials[i] {
			t.Fatalf("trial %d differs: %+v vs %+v", i, a.Trials[i], b.Trials[i])
		}
	}
}

// TestFaultCampaignDynamic: the campaign holds against Dynamic-PTMC too
// (gating must not open a detection hole).
func TestFaultCampaignDynamic(t *testing.T) {
	rep, err := memctrl.RunFaultCampaign(context.Background(), memctrl.FaultConfig{
		Trials: 30, OpsPerTrial: 128, Lines: 1024, LLCBytes: 32 << 10,
		Seed: 5, Dynamic: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Silent != 0 {
		t.Fatalf("silent corruptions under dynamic: %d\n%s", rep.Silent, rep.Summary())
	}
}

// TestFaultCampaignCancel: a cancelled context stops the campaign with a
// partial report instead of running to completion.
func TestFaultCampaignCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := memctrl.RunFaultCampaign(ctx, memctrl.FaultConfig{Trials: 50})
	if err == nil {
		t.Fatal("cancelled campaign returned no error")
	}
	if len(rep.Trials) != 0 {
		t.Fatalf("cancelled-before-start campaign ran %d trials", len(rep.Trials))
	}
}

// TestNoHurtAdversarial is the paper's no-hurt claim under attack: on a
// workload engineered so compression only costs bandwidth, Dynamic-PTMC
// must end up no worse than static PTMC and recognizably disable
// compression.
func TestNoHurtAdversarial(t *testing.T) {
	cfg := Default()
	cfg.Cores = 2
	cfg.L3Bytes = 256 << 10
	cfg.L3Assoc = 8
	cfg.SampleFrac = 0.05
	cfg.WarmupInstr = 120_000
	cfg.MeasureInstr = 120_000
	rep, err := RunNoHurt(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(rep)
	if rep.StaticBW <= 1.0 {
		t.Skipf("workload did not hurt static PTMC (bw=%.3f); attack has no teeth here", rep.StaticBW)
	}
	if !rep.CompressionDisabled {
		t.Errorf("dynamic-PTMC never disabled compression under attack (static bw=%.3fx, dynamic bw=%.3fx)",
			rep.StaticBW, rep.DynamicBW)
	}
	if rep.DynamicBW > rep.StaticBW+0.01 {
		t.Errorf("dynamic-PTMC hurt more than static under attack: %.3fx vs %.3fx",
			rep.DynamicBW, rep.StaticBW)
	}
	// The hard no-hurt bound: within 8% of the uncompressed baseline.
	if rep.DynamicBW > 1.08 {
		t.Errorf("dynamic-PTMC bandwidth %.3fx exceeds the no-hurt bound 1.08x", rep.DynamicBW)
	}
}
