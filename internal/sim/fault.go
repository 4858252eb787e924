package sim

import (
	"context"
	"fmt"

	"ptmc/internal/memctrl"
	"ptmc/internal/workload"
)

// AdversarialWorkload returns the no-hurt attack workload. The recipe for
// hurting static PTMC is compressible values plus a specific access shape:
// short sequential write bursts make group members co-resident so eviction
// keeps forming compressed units (clean-compression costs), while the
// random majority of accesses dirty single lines of those units (breaking
// them: tombstone invalidates) and read lines at unpredictable locations
// (LLP mispredictions) without ever touching the freely prefetched
// neighbors. Costs with no benefits — Dynamic-PTMC must notice and disable
// compression.
func AdversarialWorkload() *workload.Workload {
	return &workload.Workload{
		Name:           "adversarial",
		Suite:          "attack",
		FootprintBytes: 2 << 20, // ~8x a 256 KB LLC: constant eviction, constant reuse
		MemFrac:        0.5,
		WriteFrac:      0.5,
		SeqProb:        0.3, // enough bursts to keep forming units...
		SeqRun:         4,
		HotFrac:        0.25, // ...and enough random reuse to keep breaking them
		HotProb:        0.5,
		Mix: workload.ValueMix{
			{Kind: workload.KindZero, Weight: 3},
			{Kind: workload.KindSmallInt, Weight: 4},
			{Kind: workload.KindDelta8, Weight: 3},
		},
	}
}

// NoHurtReport is the outcome of the adversarial no-hurt experiment.
type NoHurtReport struct {
	Baseline *Result // uncompressed
	Static   *Result // always-compress PTMC
	Dynamic  *Result // Dynamic-PTMC

	StaticBW  float64 // static DRAM bursts / baseline (the damage)
	DynamicBW float64 // dynamic DRAM bursts / baseline (must stay near 1)

	// CompressionDisabled reports whether any Dynamic-PTMC utility counter
	// ended the run in the disabled state — the attack was recognized.
	CompressionDisabled bool
}

func (r *NoHurtReport) String() string {
	return fmt.Sprintf("no-hurt: static-ptmc bw=%.3fx dynamic-ptmc bw=%.3fx (baseline=1.0) compression-disabled=%v",
		r.StaticBW, r.DynamicBW, r.CompressionDisabled)
}

// RunNoHurt runs the adversarial workload under the uncompressed baseline,
// static PTMC, and Dynamic-PTMC, and reports whether the dynamic design
// held its no-hurt guarantee: when compression only costs bandwidth, the
// sampled cost/benefit counter must disable it.
func RunNoHurt(ctx context.Context, cfg Config) (*NoHurtReport, error) {
	if cfg.Custom == nil {
		cfg.Custom = AdversarialWorkload()
		cfg.Workload = cfg.Custom.Name
	}

	rep := &NoHurtReport{}
	runOne := func(scheme string) (*Result, *Simulator, error) {
		c := cfg
		c.Scheme = scheme
		s, err := New(c)
		if err != nil {
			return nil, nil, err
		}
		res, err := s.RunContext(ctx)
		if err != nil {
			return nil, nil, fmt.Errorf("no-hurt %s: %w", scheme, err)
		}
		return res, s, nil
	}

	var err error
	if rep.Baseline, _, err = runOne(SchemeUncompressed); err != nil {
		return nil, err
	}
	if rep.Static, _, err = runOne(SchemePTMC); err != nil {
		return nil, err
	}
	dyn, s, err := runOne(SchemeDynamicPTMC)
	if err != nil {
		return nil, err
	}
	rep.Dynamic = dyn
	rep.StaticBW = rep.Static.BandwidthOver(rep.Baseline)
	rep.DynamicBW = rep.Dynamic.BandwidthOver(rep.Baseline)
	if p, ok := s.Controller().(*memctrl.PTMC); ok && p.Dynamic() != nil {
		for _, uc := range p.Dynamic().Counters() {
			if !uc.Enabled() {
				rep.CompressionDisabled = true
			}
		}
	}
	return rep, nil
}
