package sim

import (
	"fmt"

	"ptmc/internal/cache"
	"ptmc/internal/core"
	"ptmc/internal/cpu"
	"ptmc/internal/dram"
	"ptmc/internal/metadata"
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

// Upper bounds on the parameters a design point (Point) sets, for the same
// reason as MaxCores: each is well above the paper's sensitivity sweeps,
// and together they keep an untrusted job from asking for gigabytes of
// cache or predictor state.
const (
	MaxChannels     = 16
	MaxL3Bytes      = 64 << 20
	MaxLLPEntries   = 1 << 16
	MaxMCacheBytes  = 1 << 20
	MaxDecompCycles = 1000
)

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

// Validate reports configuration errors, including every geometry New
// would reject, so a bad configuration fails before a run starts.
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
	case c.DRAM.Channels > MaxChannels:
		return fmt.Errorf("sim: channels must be at most %d", MaxChannels)
	case c.L3Bytes > MaxL3Bytes:
		return fmt.Errorf("sim: L3 must be at most %d MB", MaxL3Bytes>>20)
	case c.LLPEntries > MaxLLPEntries:
		return fmt.Errorf("sim: LLP entries must be at most %d", MaxLLPEntries)
	case c.MCacheBytes > MaxMCacheBytes:
		return fmt.Errorf("sim: metadata cache must be at most %d KB", MaxMCacheBytes>>10)
	case c.DecompCycles < 0 || c.DecompCycles > MaxDecompCycles:
		return fmt.Errorf("sim: decompression cycles must be in [0, %d]", MaxDecompCycles)
	}
	for _, g := range []cache.Config{
		{SizeBytes: c.L1Bytes, Assoc: c.L1Assoc},
		{SizeBytes: c.L2Bytes, Assoc: c.L2Assoc},
		{SizeBytes: c.L3Bytes, Assoc: c.L3Assoc},
		{SizeBytes: c.MCacheBytes, Assoc: metadata.CacheAssoc},
	} {
		if err := cache.CheckGeometry(g); err != nil {
			return err
		}
	}
	if err := core.CheckLLPEntries(c.LLPEntries); err != nil {
		return err
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
