package sim

import (
	"fmt"

	"ptmc/internal/core"
	"ptmc/internal/cpu"
	"ptmc/internal/dram"
	"ptmc/internal/workload"
)

// Scheme names accepted by Config.Scheme.
const (
	SchemeUncompressed = "uncompressed"
	SchemeNextLine     = "nextline"
	SchemeIdeal        = "ideal"
	SchemeTableTMC     = "table-tmc"
	SchemeMemZip       = "memzip"
	SchemePTMC         = "ptmc"
	SchemeDynamicPTMC  = "dynamic-ptmc"
)

// Schemes lists every scheme name.
func Schemes() []string {
	return []string{SchemeUncompressed, SchemeNextLine, SchemeIdeal,
		SchemeTableTMC, SchemeMemZip, SchemePTMC, SchemeDynamicPTMC}
}

// Config describes one simulation (defaults reproduce Table I).
type Config struct {
	Workload string // workload or mix name
	// Custom, when non-nil, overrides Workload with an ad-hoc workload
	// description (tests, examples, sweeps).
	Custom *workload.Workload
	// Sources, when non-nil, constructs each core's instruction/access
	// source directly (trace replay; see internal/trace). Workload/Custom
	// still label the run.
	Sources func(core int, seed int64) (workload.Source, error)
	Scheme  string

	Cores      int
	CPUFreqGHz float64
	Core       cpu.Config

	L1Bytes, L2Bytes, L3Bytes int
	L1Assoc, L2Assoc, L3Assoc int
	L1Lat, L2Lat, L3Lat       int64

	MemBytes uint64
	DRAM     dram.Config

	// Scheme knobs.
	DecompCycles int64 // decompression latency (0 = paper's 5 cycles)
	MCacheBytes  int   // table-tmc/memzip metadata cache
	LLPEntries   int
	SampleFrac   float64
	PerCoreDyn   bool
	LITMode      core.LITMode

	// Horizon (per core, instructions).
	WarmupInstr  int64
	MeasureInstr int64

	Seed int64

	// Observability (internal/obs). MetricsInterval > 0 snapshots every
	// registered stats series each MetricsInterval CPU cycles during the
	// measured window; the time series lands in Result.Metrics. Trace
	// records controller events (DRAM requests, fills, evictions, re-keys,
	// scrubs, policy flips) into Result.TraceEvents; TraceCapacity bounds
	// the buffer (0 = obs.DefaultTraceCapacity). Both default off, which
	// keeps the simulation hot paths allocation-free.
	MetricsInterval int64
	Trace           bool
	TraceCapacity   int
}

// MaxCores bounds Config.Cores. Each core costs about 127 KB of simulator
// state before any workload memory, and the paper's system has 8, so 64
// leaves headroom while keeping an untrusted job spec (internal/server)
// from asking for gigabytes.
const MaxCores = 64

// Default returns the paper's Table I system configuration with a
// laptop-scale measurement horizon.
func Default() Config {
	return Config{
		Scheme:       SchemeDynamicPTMC,
		Cores:        8,
		CPUFreqGHz:   3.2,
		Core:         cpu.DefaultConfig(),
		L1Bytes:      32 << 10,
		L1Assoc:      8,
		L2Bytes:      256 << 10,
		L2Assoc:      8,
		L3Bytes:      8 << 20, // 8 MB, 16-way (Table I)
		L3Assoc:      16,
		L1Lat:        4,
		L2Lat:        12,
		L3Lat:        38,
		MemBytes:     16 << 30,
		DRAM:         dram.DDR4(),
		MCacheBytes:  32 << 10,
		LLPEntries:   core.LLPEntries,
		SampleFrac:   0.01,
		PerCoreDyn:   false, // per-core counters need long horizons; see §V-A
		LITMode:      core.LITReKey,
		WarmupInstr:  700_000, // covers Dynamic-PTMC convergence (~3 sweep passes)
		MeasureInstr: 500_000,
		Seed:         1,
	}
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	switch {
	case c.Workload == "" && c.Custom == nil && c.Sources == nil:
		return fmt.Errorf("sim: no workload selected")
	case c.Cores <= 0 || c.Cores > MaxCores:
		return fmt.Errorf("sim: cores must be in [1, %d]", MaxCores)
	case c.MeasureInstr <= 0:
		return fmt.Errorf("sim: MeasureInstr must be positive")
	case c.CPUFreqGHz <= 0:
		return fmt.Errorf("sim: CPU frequency must be positive")
	}
	ok := false
	for _, s := range Schemes() {
		if s == c.Scheme {
			ok = true
		}
	}
	if !ok {
		return fmt.Errorf("sim: unknown scheme %q", c.Scheme)
	}
	return c.DRAM.Validate()
}
