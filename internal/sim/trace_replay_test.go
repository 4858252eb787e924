package sim

import "testing"

// TestTraceReplayThroughSimulator records a workload's access stream, then
// replays it through the full simulator: the replay must be deterministic
// and integrity-clean under PTMC.
func TestTraceReplayThroughSimulator(t *testing.T) {
	cfg := traceReplayCfg(t, SchemePTMC)
	run := func() *Result {
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	r1, r2 := run(), run()
	if r1.Mem.IntegrityErrs != 0 {
		t.Fatalf("integrity errors: %d", r1.Mem.IntegrityErrs)
	}
	if r1.Cycles != r2.Cycles || r1.DRAM.Reads != r2.DRAM.Reads {
		t.Error("trace replay must be deterministic")
	}
	if r1.DRAM.Reads == 0 {
		t.Error("replay produced no memory traffic")
	}
}
