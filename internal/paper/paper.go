// Package paper implements the reproduction of every table and figure in
// the evaluation of "Enabling Transparent Memory-Compression for Commodity
// Memory Systems" (HPCA 2019). Each experiment builds on the simulator in
// internal/sim and prints the same rows/series the paper reports; shapes
// (who wins, rough factors, crossovers) are the reproduction target, not
// absolute numbers — see EXPERIMENTS.md.
//
// The Runner caches simulation results by run key (workload, scheme, run
// spec and design point), so experiments that share runs (most share the
// uncompressed baseline) pay for them once per process.
package paper

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"ptmc/internal/exec"
	"ptmc/internal/sim"
	"ptmc/internal/stats"
	"ptmc/internal/workload"
)

// Options scopes an experiment run.
type Options struct {
	// Run is the horizon, core count, seed and design point every
	// simulation shares; each job supplies its own workload and may
	// override point fields.
	Run sim.Spec

	// Workload subsets (names). A nil slice selects the full paper set;
	// an empty non-nil slice selects none.
	Spec   []string // memory-intensive SPEC set (Figures 4-15)
	Graph  []string // GAP set
	Mixes  []string // multiprogrammed mixes
	All    []string // Figure 17 population (defaults to every workload+mix)
	Silent bool     // suppress per-run progress lines
}

// Quick returns a laptop-scale option set: representative workloads and a
// short horizon. The shapes of every figure survive; error bars shrink with
// -insts in cmd/paperbench.
func Quick() Options {
	return Options{
		Run: sim.Spec{Cores: 8, Warmup: 700_000, Measure: 350_000, Seed: 1},
		Spec: []string{"libquantum06", "lbm06", "mcf06", "soplex06",
			"lbm17", "xz17"},
		Graph: []string{"pr-twitter", "bfs-web", "cc-sk"},
		Mixes: []string{"mix1", "mix3"},
		All: []string{"libquantum06", "lbm06", "mcf06", "soplex06", "sphinx306",
			"leela17", "xz17", "pr-twitter", "bfs-web", "mix1"},
	}
}

// Full returns the complete paper workload population (slow: intended for
// cmd/paperbench -full).
func Full() Options {
	o := Quick()
	o.Run.Warmup = 1_000_000
	o.Run.Measure = 1_000_000
	o.Spec = nil
	o.Graph = nil
	o.Mixes = nil
	o.All = nil
	return o
}

func (o *Options) spec() []string {
	if o.Spec != nil {
		return o.Spec
	}
	var out []string
	for _, w := range workload.HighMPKI() {
		out = append(out, w.Name)
	}
	return out
}

func (o *Options) graph() []string {
	if o.Graph != nil {
		return o.Graph
	}
	var out []string
	for _, w := range workload.Graph() {
		out = append(out, w.Name)
	}
	return out
}

func (o *Options) mixes() []string {
	if o.Mixes != nil {
		return o.Mixes
	}
	var out []string
	for _, m := range workload.Mixes() {
		out = append(out, m.Name)
	}
	return out
}

func (o *Options) all() []string {
	if o.All != nil {
		return o.All
	}
	return workload.Names()
}

// Runner executes experiments against a shared, goroutine-safe result
// cache. Simulations fan out over a bounded worker pool (see Prefetch);
// concurrent requests for the same run key are singleflight-deduplicated
// so each simulation runs exactly once per process, however many
// artifacts or goroutines ask for it.
type Runner struct {
	Opts  Options
	Out   io.Writer
	pool  *exec.Pool
	cache *exec.Cache[*sim.Result]
	outMu sync.Mutex // serializes progress lines from concurrent callers
}

// NewRunner builds a Runner writing human-readable reports to out, running
// up to GOMAXPROCS simulations concurrently.
func NewRunner(opts Options, out io.Writer) *Runner {
	return NewParallelRunner(opts, out, 0)
}

// NewParallelRunner bounds concurrent simulations to parallel workers
// (<= 0 selects runtime.GOMAXPROCS(0)). Report bytes are identical at any
// worker count: artifacts submit their full job set up front via Prefetch
// and then format exclusively from the cache in submission order.
func NewParallelRunner(opts Options, out io.Writer, parallel int) *Runner {
	pool := exec.NewPool(parallel)
	return &Runner{Opts: opts, Out: out, pool: pool, cache: exec.NewCache[*sim.Result](pool)}
}

// Parallelism reports the worker-pool size.
func (r *Runner) Parallelism() int { return r.pool.Size() }

// Pool exposes the runner's worker pool; its queue-wait and run-time
// histograms summarize how the simulation fan-out scheduled after a run
// (cmd/paperbench -poolstats).
func (r *Runner) Pool() *exec.Pool { return r.pool }

// Job names one simulation: a workload and scheme under the runner's run
// spec, with Point's non-zero fields overriding the run's point.
type Job struct {
	Workload string
	Scheme   string
	Point    sim.Point
}

// jobsFor builds the cross product of workloads × schemes at the run's
// point, in deterministic workload-major order.
func jobsFor(wls []string, schemes ...string) []Job {
	jobs := make([]Job, 0, len(wls)*len(schemes))
	for _, wl := range wls {
		for _, sch := range schemes {
			jobs = append(jobs, Job{Workload: wl, Scheme: sch})
		}
	}
	return jobs
}

// spec is j's normalized run spec: the runner's shared spec for j's
// workload, with j's point over the run's. Normalizing zeroes Table I
// values, so a job at a Table I point is the same run as the default job.
func (r *Runner) spec(j Job) sim.Spec {
	s := sim.Spec{Workload: j.Workload, Point: j.Point}.Or(r.Opts.Run)
	s.Normalize()
	return s
}

// run executes (or recalls) one job through the deduplicated cache. ran
// reports whether this call performed the simulation.
func (r *Runner) run(ctx context.Context, j Job) (res *sim.Result, ran bool, err error) {
	s := r.spec(j)
	return r.cache.DoJob(ctx, s.Key(j.Scheme), exec.JobOptions{}, func(context.Context) (*sim.Result, error) {
		res, err := sim.Run(s.Config(j.Scheme))
		if err != nil {
			return nil, fmt.Errorf("%s/%s%s: %w", j.Workload, j.Scheme, s.Point.Key(), err)
		}
		if res.Mem.IntegrityErrs > 0 {
			return nil, fmt.Errorf("%s/%s%s: %d integrity errors",
				j.Workload, j.Scheme, s.Point.Key(), res.Mem.IntegrityErrs)
		}
		return res, nil
	})
}

// printRan emits one progress line (under the output lock: Result may be
// called from many goroutines). A run at a design point other than Table
// I ends with the point's key suffix, so Table IV's 1- and 4-channel runs
// do not print like the Table I run of the same workload.
func (r *Runner) printRan(j Job, res *sim.Result) {
	if r.Opts.Silent {
		return
	}
	r.outMu.Lock()
	fmt.Fprintf(r.Out, "    [ran] %v%s\n", res, r.spec(j).Point.For(j.Scheme).Key())
	r.outMu.Unlock()
}

// Result runs (or recalls) one job's simulation. Result is goroutine-safe
// and deduplicates concurrent calls for the same run key.
func (r *Runner) Result(j Job) (*sim.Result, error) {
	res, ran, err := r.run(context.Background(), j)
	if err != nil {
		return nil, err
	}
	if ran {
		r.printRan(j, res)
	}
	return res, nil
}

// Prefetch fans jobs out over the worker pool and blocks until every job
// has completed or one has failed (failure cancels jobs still waiting for
// a worker; running simulations finish and populate the cache). Duplicate
// keys collapse. Progress lines print in submission order after the batch
// settles — never in completion order — so the rendered bytes are
// identical whether the pool has 1 worker or 64. The returned error is
// the earliest-submitted failure among the jobs that ran; when several
// jobs fail close together, which of them reached a worker first (and is
// therefore reported) can vary with the worker count.
func (r *Runner) Prefetch(jobs ...Job) error {
	uniq := make([]Job, 0, len(jobs))
	seen := make(map[string]bool, len(jobs))
	for _, j := range jobs {
		if k := r.spec(j).Key(j.Scheme); !seen[k] {
			seen[k] = true
			uniq = append(uniq, j)
		}
	}

	type outcome struct {
		res *sim.Result
		ran bool
		err error
	}
	outs := make([]outcome, len(uniq))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for i, j := range uniq {
		wg.Add(1)
		go func(i int, j Job) {
			defer wg.Done()
			res, ran, err := r.run(ctx, j)
			outs[i] = outcome{res, ran, err}
			if err != nil {
				cancel()
			}
		}(i, j)
	}
	wg.Wait()

	errs := make([]error, len(outs))
	for i, o := range outs {
		errs[i] = o.err
		if o.err == nil && o.ran {
			r.printRan(uniq[i], o.res)
		}
	}
	return exec.FirstError(errs)
}

// speedup returns the weighted speedup of scheme over the uncompressed
// baseline for one workload.
func (r *Runner) speedup(wl, scheme string) (float64, error) {
	base, err := r.Result(Job{Workload: wl, Scheme: sim.SchemeUncompressed})
	if err != nil {
		return 0, err
	}
	res, err := r.Result(Job{Workload: wl, Scheme: scheme})
	if err != nil {
		return 0, err
	}
	return res.WeightedSpeedupOver(base), nil
}

// geoMeanSpeedup averages a scheme's speedup over a workload list.
func (r *Runner) geoMeanSpeedup(wls []string, scheme string) (float64, error) {
	var vs []float64
	for _, wl := range wls {
		s, err := r.speedup(wl, scheme)
		if err != nil {
			return 0, err
		}
		vs = append(vs, s)
	}
	return stats.GeoMean(vs), nil
}

// header prints an experiment banner.
func (r *Runner) header(title string) {
	fmt.Fprintf(r.Out, "\n=== %s ===\n", title)
}

// bar renders an ASCII bar for a speedup value: "|" marks 1.0 (baseline);
// each cell is 2.5% of speedup. Values below 1.0 grow to the left.
func bar(v float64) string {
	const cell = 0.025
	n := int((v - 1.0) / cell)
	switch {
	case n >= 0:
		if n > 40 {
			n = 40
		}
		return "|" + strings.Repeat("#", n)
	default:
		if n < -20 {
			n = -20
		}
		return strings.Repeat("-", -n) + "|"
	}
}

// sortedCopy returns vs sorted ascending (Figure 17's S-curve).
func sortedCopy(vs []float64) []float64 {
	out := append([]float64(nil), vs...)
	sort.Float64s(out)
	return out
}

// lookupWorkload resolves a workload name (mixes resolve to a synthetic
// description labeled "mix").
func lookupWorkload(name string) (*workload.Workload, error) {
	if w, err := workload.Lookup(name); err == nil {
		return w, nil
	}
	if _, err := workload.LookupMix(name); err == nil {
		return &workload.Workload{Name: name, Suite: "mix"}, nil
	}
	return nil, fmt.Errorf("paper: unknown workload %q", name)
}
