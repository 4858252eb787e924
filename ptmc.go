// Package ptmc is a full-system reproduction of "Enabling Transparent
// Memory-Compression for Commodity Memory Systems" (Young, Kariyappa,
// Qureshi — HPCA 2019): Practical and Transparent Memory Compression.
//
// The library simulates, cycle by cycle, an 8-core out-of-order system with
// a three-level cache hierarchy and a DDR4 memory system, and implements
// the paper's memory-controller design — inline-metadata markers, a Line
// Location Predictor, a Line Inversion Table, and Dynamic set-sampled
// cost/benefit gating — alongside every baseline the paper compares
// against. Memory contents are real bytes: compressed groups, markers,
// inverted lines, and Invalid-Line tombstones are materialized and decoded
// on every access, so data integrity is continuously checked rather than
// assumed.
//
// Quick start:
//
//	cfg := ptmc.DefaultConfig()
//	cfg.Workload = "lbm06"
//	cfg.Scheme = ptmc.SchemeDynamicPTMC
//	result, err := ptmc.Run(cfg)
//
// To compare against the uncompressed baseline (the paper's normalization):
//
//	rs, err := ptmc.Compare(cfg, ptmc.SchemeUncompressed, ptmc.SchemeDynamicPTMC)
//	speedup := rs[ptmc.SchemeDynamicPTMC].WeightedSpeedupOver(rs[ptmc.SchemeUncompressed])
//
// See cmd/ptmcsim for a CLI, cmd/paperbench for the harness that
// regenerates every table and figure of the paper, and examples/ for
// runnable walkthroughs.
package ptmc

import (
	"context"
	"io"

	"ptmc/internal/compress"
	"ptmc/internal/fault"
	"ptmc/internal/memctrl"
	"ptmc/internal/obs"
	"ptmc/internal/sim"
	"ptmc/internal/workload"
)

// Config describes one simulation; see DefaultConfig for Table I defaults.
type Config = sim.Config

// Result holds the measured statistics of one run.
type Result = sim.Result

// Workload describes a synthetic benchmark; the built-in table is listed by
// Workloads().
type Workload = workload.Workload

// ValueMix is a workload's distribution of data-value shapes (determines
// measured compressibility).
type ValueMix = workload.ValueMix

// ValueKind selects a data-value synthesizer for workload pages.
type ValueKind = workload.ValueKind

// Value kinds, from most to least compressible.
const (
	KindZero     = workload.KindZero
	KindSmallInt = workload.KindSmallInt
	KindDelta8   = workload.KindDelta8
	KindPointer  = workload.KindPointer
	KindFP       = workload.KindFP
	KindRandom   = workload.KindRandom
)

// Compressor is a per-line compression algorithm (FPC, BDI, or the
// FPC+BDI hybrid the paper evaluates).
type Compressor = compress.Algorithm

// Scheme names accepted in Config.Scheme.
const (
	SchemeUncompressed = sim.SchemeUncompressed // baseline memory system
	SchemeNextLine     = sim.SchemeNextLine     // next-line prefetch (Table VI)
	SchemeIdeal        = sim.SchemeIdeal        // oracle TMC, zero overhead
	SchemeTableTMC     = sim.SchemeTableTMC     // metadata-table TMC (prior art)
	SchemeMemZip       = sim.SchemeMemZip       // variable-burst TMC (MemZip, §VII)
	SchemePTMC         = sim.SchemePTMC         // static PTMC (always compress)
	SchemeDynamicPTMC  = sim.SchemeDynamicPTMC  // the paper's full design
)

// DefaultConfig returns the paper's Table I system configuration with a
// laptop-scale simulation horizon.
func DefaultConfig() Config { return sim.Default() }

// Run simulates one workload under one scheme.
func Run(cfg Config) (*Result, error) { return sim.Run(cfg) }

// RunContext is Run with cancellation: a done context aborts the simulation
// at its next cycle checkpoint.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	return sim.RunContext(ctx, cfg)
}

// Compare runs the same workload and seed under several schemes,
// concurrently up to GOMAXPROCS. Results are identical to a serial run.
func Compare(cfg Config, schemes ...string) (map[string]*Result, error) {
	return sim.Compare(cfg, schemes...)
}

// CompareParallel is Compare with an explicit worker bound (<= 0 selects
// GOMAXPROCS) and context cancellation.
func CompareParallel(ctx context.Context, parallel int, cfg Config, schemes ...string) (map[string]*Result, error) {
	return sim.CompareParallel(ctx, parallel, cfg, schemes...)
}

// Schemes lists every memory-controller scheme name.
func Schemes() []string { return sim.Schemes() }

// Workloads lists every built-in workload and mix name.
func Workloads() []string { return workload.Names() }

// LookupWorkload returns a built-in workload description by name.
func LookupWorkload(name string) (*Workload, error) { return workload.Lookup(name) }

// Fault-injection campaign API (robustness validation; see cmd/faultprobe).
type (
	// FaultConfig parameterizes a fault-injection campaign.
	FaultConfig = memctrl.FaultConfig
	// FaultReport is a campaign's adjudicated outcome.
	FaultReport = memctrl.FaultReport
	// FaultTrial records one injection and its outcome.
	FaultTrial = memctrl.FaultTrial
	// FaultOutcome classifies a trial (detected / harmless / silent).
	FaultOutcome = memctrl.FaultOutcome
	// FaultKind selects an injectable fault ("marker-flip", ...).
	FaultKind = fault.Kind
	// NoHurtReport is the adversarial no-hurt experiment's outcome.
	NoHurtReport = sim.NoHurtReport
)

// FaultKinds lists every injectable fault kind.
func FaultKinds() []FaultKind { return fault.Kinds() }

// ParseFaultKind resolves a fault-kind name ("marker-flip", ...).
func ParseFaultKind(name string) (FaultKind, error) { return fault.ParseKind(name) }

// RunFaultCampaign interleaves random traffic with injected faults against
// a live PTMC controller and adjudicates every trial as detected, harmless,
// or silent (the outcome that must never occur).
func RunFaultCampaign(ctx context.Context, cfg FaultConfig) (*FaultReport, error) {
	return memctrl.RunFaultCampaign(ctx, cfg)
}

// RunNoHurt runs the adversarial workload under the uncompressed baseline,
// static PTMC, and Dynamic-PTMC, reporting whether the dynamic design
// disabled compression and held the no-hurt bandwidth bound.
func RunNoHurt(ctx context.Context, cfg Config) (*NoHurtReport, error) {
	return sim.RunNoHurt(ctx, cfg)
}

// AdversarialWorkload returns the compression-hostile workload RunNoHurt
// uses by default.
func AdversarialWorkload() *Workload { return sim.AdversarialWorkload() }

// Observability API (internal/obs): enable with Config.MetricsInterval /
// Config.Trace (or FaultConfig.Metrics / FaultConfig.Trace) and consume the
// output from Result.Metrics / Result.TraceEvents.
type (
	// MetricsDump is the exported snapshot time series of a run: the list
	// of registered stat series plus one row of values per snapshot window.
	MetricsDump = obs.MetricsDump
	// TraceEvent is one recorded controller event (DRAM read/write, fill,
	// eviction, re-key, scrub, policy flip).
	TraceEvent = obs.Event
	// TraceKind classifies a TraceEvent.
	TraceKind = obs.Kind
)

// TraceKinds lists every event kind a tracer can record.
func TraceKinds() []TraceKind { return obs.Kinds() }

// WriteChromeTrace writes events in Chrome trace-event JSON, loadable in
// chrome://tracing or Perfetto (cycles are mapped to microseconds).
func WriteChromeTrace(w io.Writer, events []TraceEvent) error {
	return obs.WriteChromeTrace(w, events)
}

// WriteTraceJSONL writes events as compact JSON Lines, one event per line.
func WriteTraceJSONL(w io.Writer, events []TraceEvent) error {
	return obs.WriteJSONL(w, events)
}

// TraceCountByKind tallies events per kind (smoke checks, quick summaries).
func TraceCountByKind(events []TraceEvent) map[TraceKind]int {
	return obs.CountByKind(events)
}

// StartPprof serves net/http/pprof on addr (e.g. "localhost:6060") in a
// background goroutine and returns the bound address.
func StartPprof(addr string) (string, error) { return obs.StartPprof(addr) }

// NewHybridCompressor returns the FPC+BDI hybrid line compressor, usable
// standalone for compressibility studies (see examples/membw-explorer).
func NewHybridCompressor() Compressor { return compress.Hybrid{} }

// NewFPCCompressor returns the Frequent-Pattern Compression algorithm.
func NewFPCCompressor() Compressor { return compress.FPC{} }

// NewBDICompressor returns the Base-Delta-Immediate algorithm.
func NewBDICompressor() Compressor { return compress.BDI{} }
