package main

import (
	"fmt"

	"ptmc"
	"ptmc/internal/cpu"
	"ptmc/internal/workload"
)

// defaultSeed is the seed the reference fingerprints are pinned for.
const defaultSeed = 1

// spec is one benchmark workload: a simulation the harness runs through the
// public entry points with ptmc.DefaultConfig() plus the few workload fields
// config sets.
type spec struct {
	name string
	// ref is the Result fingerprint (see fingerprint) at defaultSeed. Any
	// change to a modelled statistic changes it; a change meant only to
	// make the simulator faster must leave it alone.
	ref string
	// config sets only workload fields: Workload/Custom, Scheme, Cores,
	// Core, WarmupInstr and MeasureInstr; configFor adds Seed
	// (TestConfigDiffersOnlyInWorkloadFields holds both to that).
	config func(cfg *ptmc.Config)
}

// Horizons. mix1 runs 8 cores, so one run simulates 8x its per-core counts.
const (
	mix1Warmup    = 300_000
	mix1Measure   = 100_000
	lowmlpWarmup  = 700_000
	lowmlpMeasure = 2_000_000
)

var specs = []spec{
	{
		// The paper's headline configuration; the only workload where
		// memctrl, core and compress do real work.
		name: "mix1-dynamic",
		ref:  "8f34266a6ede2831",
		config: func(cfg *ptmc.Config) {
			cfg.Workload = "mix1"
			cfg.Scheme = ptmc.SchemeDynamicPTMC
			cfg.WarmupInstr, cfg.MeasureInstr = mix1Warmup, mix1Measure
		},
	},
	{
		// The same streams and pages with markers, LLP and codec bypassed:
		// the control for compression changes, and the paper's baseline.
		name: "mix1-uncompressed",
		ref:  "0a825b3788cf9fd2",
		config: func(cfg *ptmc.Config) {
			cfg.Workload = "mix1"
			cfg.Scheme = ptmc.SchemeUncompressed
			cfg.WarmupInstr, cfg.MeasureInstr = mix1Warmup, mix1Measure
		},
	},
	{
		// ~90% idle cycles: the engine loop and the core model dominate.
		name: "lowmlp-dynamic",
		ref:  "c3dd7df0f4b24c96",
		config: func(cfg *ptmc.Config) {
			cfg.Workload = "lowmlp"
			cfg.Custom = lowMLPWorkload()
			cfg.Scheme = ptmc.SchemeDynamicPTMC
			cfg.Cores = 1
			cfg.Core = cpu.Config{ROB: 8, FetchWidth: 8, RetireWidth: 8}
			cfg.WarmupInstr, cfg.MeasureInstr = lowmlpWarmup, lowmlpMeasure
		},
	},
}

func lookupSpec(name string) (*spec, error) {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// configFor returns the harness configuration of w at seed. It never sets
// Shards or EventDriven: the benchmark measures the default engine.
func (w *spec) configFor(seed int64) ptmc.Config {
	cfg := ptmc.DefaultConfig()
	w.config(&cfg)
	cfg.Seed = seed
	return cfg
}

// lowMLPWorkload is the read-only low-MLP shape of cmd/benchtrend: memory
// instructions are frequent but the 8-entry ROB blocks on the oldest miss,
// and pointer-style accesses over 32 MB make nearly every load a DRAM
// round trip.
func lowMLPWorkload() *ptmc.Workload {
	return &ptmc.Workload{
		Name:           "lowmlp",
		Suite:          "micro",
		FootprintBytes: 32 << 20,
		MemFrac:        0.40,
		WriteFrac:      0,
		SeqProb:        0,
		SeqRun:         2,
		HotFrac:        0,
		HotProb:        0,
		Mix: ptmc.ValueMix{
			{Kind: ptmc.KindZero, Weight: 70},
			{Kind: ptmc.KindSmallInt, Weight: 20},
			{Kind: ptmc.KindPointer, Weight: 10},
		},
	}
}

// coreWorkloads returns the workload each core runs, resolved the way
// sim.New resolves them: Custom on every core, a mix's parts in core order,
// or one named workload on every core.
func coreWorkloads(cfg ptmc.Config) ([]*workload.Workload, error) {
	parts := make([]*workload.Workload, cfg.Cores)
	if cfg.Custom != nil {
		for i := range parts {
			parts[i] = cfg.Custom
		}
		return parts, nil
	}
	if mix, err := workload.LookupMix(cfg.Workload); err == nil {
		if len(mix.Parts) != cfg.Cores {
			return nil, fmt.Errorf("mix %s has %d parts, config has %d cores", mix.Name, len(mix.Parts), cfg.Cores)
		}
		for i, name := range mix.Parts {
			w, err := workload.Lookup(name)
			if err != nil {
				return nil, err
			}
			parts[i] = w
		}
		return parts, nil
	}
	w, err := workload.Lookup(cfg.Workload)
	if err != nil {
		return nil, err
	}
	for i := range parts {
		parts[i] = w
	}
	return parts, nil
}
