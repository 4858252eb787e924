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
// cache. Simulations fan out over a bounded worker pool (see Results);
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
// worker count: an artifact runs its whole matrix through Results and
// formats from the rows it returns, in matrix order.
func NewParallelRunner(opts Options, out io.Writer, parallel int) *Runner {
	pool := exec.NewPool(parallel)
	return &Runner{Opts: opts, Out: out, pool: pool, cache: exec.NewCache[*sim.Result](pool)}
}

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

// matrix is the cross product of workloads × schemes over the runner's
// run spec; a caller may add a Points axis.
func (r *Runner) matrix(wls []string, schemes ...string) sim.Matrix {
	return sim.Matrix{Base: r.Opts.Run, Workloads: wls, Schemes: schemes}
}

// cell is j's normalized run: the one cell of j's matrix, so a job at a
// Table I point is the same run as the default job.
func (r *Runner) cell(j Job) sim.RunSpec {
	m := r.matrix([]string{j.Workload}, j.Scheme)
	m.Points = []sim.Point{j.Point}
	return m.Runs()[0]
}

// do runs the cells through the deduplicated cache, all at once, and
// waits for every one to settle. Then it prints one progress line per
// cell this call simulated, in input order (under the output lock:
// Result may be called from many goroutines), and returns the
// lowest-index failure, which names its cell. A run at a design point
// other than Table I ends its line with the point's key suffix, so Table
// IV's 1- and 4-channel runs do not print like the Table I run of the
// same workload.
func (r *Runner) do(runs []sim.RunSpec) ([]*sim.Result, error) {
	keys := make([]string, len(runs))
	for i, run := range runs {
		keys[i] = run.Key()
	}
	res, ran, errs := r.cache.DoAll(context.Background(), keys, 0, func(ctx context.Context, i int) (*sim.Result, error) {
		run := runs[i]
		res, err := run.Exec(ctx, nil)
		if err != nil {
			return nil, fmt.Errorf("%s/%s%s: %w", run.Spec.Workload, run.Scheme, run.Spec.Point.Key(), err)
		}
		return res, nil
	})
	if !r.Opts.Silent {
		r.outMu.Lock()
		for i, run := range runs {
			if ran[i] && errs[i] == nil {
				fmt.Fprintf(r.Out, "    [ran] %v%s\n", res[i], run.Spec.Point.For(run.Scheme).Key())
			}
		}
		r.outMu.Unlock()
	}
	return res, exec.FirstError(errs)
}

// Result runs (or recalls) one job's simulation. Result is goroutine-safe
// and deduplicates concurrent calls for the same run key.
func (r *Runner) Result(j Job) (*sim.Result, error) {
	res, err := r.do([]sim.RunSpec{r.cell(j)})
	return res[0], err
}

// Results runs every cell of m over the worker pool and blocks until all
// of them have settled; a failure neither cancels nor skips the rest, and
// the error returned is the first failing cell's in matrix order. Equal
// run keys collapse. Progress lines print in matrix order after the batch
// settles — never in completion order — so the rendered bytes are
// identical whether the pool has 1 worker or 64. The results come back
// one row per workload (and point, for a matrix with a Points axis) in
// matrix order, one column per scheme; m has no Seeds axis.
func (r *Runner) Results(m sim.Matrix) ([][]*sim.Result, error) {
	res, err := r.do(m.Runs())
	if err != nil {
		return nil, err
	}
	var rows [][]*sim.Result
	for n := len(m.Schemes); len(res) > 0; res = res[n:] {
		rows = append(rows, res[:n])
	}
	return rows, nil
}

// speedup is the weighted speedup of row's scheme k over its scheme 0,
// the uncompressed baseline.
func speedup(row []*sim.Result, k int) float64 {
	return row[k].WeightedSpeedupOver(row[0])
}

// suites is the SPEC, GAP and mix workload sets, and all of them in that
// order.
func (r *Runner) suites() (suites []suite, all []string) {
	suites = []suite{{"SPEC", r.Opts.spec()}, {"GAP", r.Opts.graph()}, {"MIX", r.Opts.mixes()}}
	for _, s := range suites {
		all = append(all, s.wls...)
	}
	return suites, all
}

// suite is a named workload set.
type suite struct {
	name string
	wls  []string
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
