package sim

import (
	"context"
	"fmt"
	"strings"

	"ptmc/internal/cache"
	"ptmc/internal/dram"
	"ptmc/internal/energy"
	"ptmc/internal/exec"
	"ptmc/internal/memctrl"
	"ptmc/internal/obs"
	"ptmc/internal/stats"
)

// Result holds the measured-window outcome of one run.
type Result struct {
	Workload string
	Scheme   string
	Cores    int

	Instructions int64 // total retired across cores (measured window)
	Cycles       int64 // slowest core's finish cycle
	PerCoreIPC   []float64

	L3   cache.Stats
	Mem  memctrl.Stats
	DRAM dram.Stats

	MPKI           float64
	FootprintBytes uint64
	Energy         energy.Breakdown

	LLPAccuracy float64
	HasLLP      bool

	MCacheHitRate float64
	HasMCache     bool

	// Observability output (nil/empty unless enabled in Config). Metrics
	// is the snapshot time series (Config.MetricsInterval); TraceEvents is
	// the recorded event stream (Config.Trace). Both are pure data, so a
	// Result is identical whether the run executed serially or under
	// CompareParallel.
	Metrics      *obs.MetricsDump
	TraceEvents  []obs.Event
	TraceDropped uint64
}

// IPC returns the aggregate instructions per cycle.
func (r *Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// WeightedSpeedupOver computes the paper's aggregate metric against a
// baseline run of the same workload.
func (r *Result) WeightedSpeedupOver(base *Result) float64 {
	return stats.WeightedSpeedup(r.PerCoreIPC, base.PerCoreIPC)
}

// BandwidthOver returns this run's total DRAM bursts normalized to a
// baseline run (Figures 4 and 14 are stacks of per-category versions).
func (r *Result) BandwidthOver(base *Result) float64 {
	return stats.Ratio(float64(r.Mem.Total()), float64(base.Mem.Total()))
}

// String summarizes the run.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %-13s IPC=%.3f MPKI=%.1f L3hit=%.1f%%",
		r.Workload, r.Scheme, r.IPC(), r.MPKI, 100*r.L3.HitRate())
	fmt.Fprintf(&b, " dramR=%d dramW=%d", r.DRAM.Reads, r.DRAM.Writes)
	if r.HasLLP {
		fmt.Fprintf(&b, " llp=%.1f%%", 100*r.LLPAccuracy)
	}
	if r.HasMCache {
		fmt.Fprintf(&b, " mcache=%.1f%%", 100*r.MCacheHitRate)
	}
	if r.Mem.IntegrityErrs > 0 {
		fmt.Fprintf(&b, " INTEGRITY-ERRORS=%d", r.Mem.IntegrityErrs)
	}
	if d := r.Mem.Degradations(); d > 0 {
		fmt.Fprintf(&b, " DEGRADED=%d", d)
	}
	return b.String()
}

// Run is the one-call entry: build a simulator from cfg and run it.
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run with cancellation: a done context aborts the simulation
// at its next cycle checkpoint (per-point timeouts in cmd/sweep, campaign
// drivers).
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return s.RunContext(ctx)
}

// Compare runs the same workload/seed under several schemes, returning
// results keyed by scheme name. Schemes run concurrently up to GOMAXPROCS;
// each simulation is fully independent (own stores, own seeded streams), so
// the per-scheme results are identical to a serial run.
func Compare(cfg Config, schemes ...string) (map[string]*Result, error) {
	return CompareParallel(context.Background(), 0, cfg, schemes...)
}

// CompareParallel is Compare with an explicit worker bound (<= 0 selects
// runtime.GOMAXPROCS(0)) and cancellation. Every scheme runs to the end
// (a repeated scheme runs once), and the earliest-listed failure is the
// one returned, regardless of completion order.
func CompareParallel(ctx context.Context, parallel int, cfg Config, schemes ...string) (map[string]*Result, error) {
	cache := exec.NewCache[*Result](exec.NewPool(parallel))
	results, _, errs := cache.DoAll(ctx, schemes, 0, func(ctx context.Context, i int) (*Result, error) {
		c := cfg
		c.Scheme = schemes[i]
		r, err := RunContext(ctx, c)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", cfg.Workload, schemes[i], err)
		}
		return r, nil
	})
	if err := exec.FirstError(errs); err != nil {
		return nil, err
	}
	out := make(map[string]*Result, len(schemes))
	for i, scheme := range schemes {
		out[scheme] = results[i]
	}
	return out, nil
}
