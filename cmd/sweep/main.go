// Command sweep runs parameter-sensitivity studies around the paper's
// design points: channel count, LLC size, LLP size, metadata-cache size for
// the table-based baseline, and ganged-eviction geometry (group size via
// scheme choice). Each sweep reports Dynamic-PTMC's (or the named scheme's)
// weighted speedup over the uncompressed baseline at every point.
//
// A point is a labelled sim.Spec laid over the command-line run spec: the
// seeds kind varies the seed, every other kind the design point
// (sim.Point), so a point runs exactly the configuration a job with that
// point would.
//
// Each point needs two simulations, the scheme under test and the
// uncompressed baseline. All of them go through one keyed result cache
// (exec.Cache), keyed by the normalized run spec's sim.Spec.Key, so a run
// that several points share simulates once: the baseline of an llp,
// mcache or decomp sweep reads none of the varied fields and runs once
// for the whole sweep. Simulations run concurrently up to -parallel
// workers; output prints in sweep order once every point has settled, so
// the report is identical at any worker count. A failing point does not
// abort the sweep: every point runs, completed rows print, the failures
// are listed afterwards, and only then does the process exit non-zero.
//
// -timeout is a deadline for each simulation: a simulation that exceeds
// it is cancelled (it aborts at its next cycle checkpoint), every point
// that needs it is reported in the end-of-run summary as timed out, and
// the rest of the sweep continues.
//
// -metrics m.json and -trace t.trace write one file per point, with the
// point label before the extension: m-channels=1.json, t-channels=1.trace.
//
// Usage:
//
//	sweep -kind channels -workload lbm06
//	sweep -kind llc      -workload mcf06 -scheme ptmc
//	sweep -kind llp      -workload lbm06
//	sweep -kind mcache   -workload pr-twitter
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"ptmc"
	"ptmc/internal/exec"
	"ptmc/internal/obs"
	"ptmc/internal/sim"
)

// point is one labelled sweep point: the spec fields it varies, over the
// command-line run spec.
type point struct {
	label string
	spec  sim.Spec
}

// kinds is every sweep's point table. The seeds kind varies the seed;
// every other kind varies the design point.
var kinds = map[string][]point{
	"channels": {
		{"channels=1", sim.Spec{Point: sim.Point{Channels: 1}}},
		{"channels=2", sim.Spec{Point: sim.Point{Channels: 2}}},
		{"channels=4", sim.Spec{Point: sim.Point{Channels: 4}}},
	},
	"llc": {
		{"llc=2MB", sim.Spec{Point: sim.Point{L3MB: 2}}},
		{"llc=4MB", sim.Spec{Point: sim.Point{L3MB: 4}}},
		{"llc=8MB", sim.Spec{Point: sim.Point{L3MB: 8}}},
		{"llc=16MB", sim.Spec{Point: sim.Point{L3MB: 16}}},
	},
	"llp": {
		{"llp=64", sim.Spec{Point: sim.Point{LLPEntries: 64}}},
		{"llp=128", sim.Spec{Point: sim.Point{LLPEntries: 128}}},
		{"llp=256", sim.Spec{Point: sim.Point{LLPEntries: 256}}},
		{"llp=512", sim.Spec{Point: sim.Point{LLPEntries: 512}}},
		{"llp=1024", sim.Spec{Point: sim.Point{LLPEntries: 1024}}},
		{"llp=4096", sim.Spec{Point: sim.Point{LLPEntries: 4096}}},
	},
	"mcache": {
		{"mcache=8KB", sim.Spec{Point: sim.Point{MCacheKB: 8}}},
		{"mcache=16KB", sim.Spec{Point: sim.Point{MCacheKB: 16}}},
		{"mcache=32KB", sim.Spec{Point: sim.Point{MCacheKB: 32}}},
		{"mcache=64KB", sim.Spec{Point: sim.Point{MCacheKB: 64}}},
		{"mcache=128KB", sim.Spec{Point: sim.Point{MCacheKB: 128}}},
	},
	"decomp": {
		{"decomp=2", sim.Spec{Point: sim.Point{DecompCycles: 2}}},
		{"decomp=5", sim.Spec{Point: sim.Point{DecompCycles: 5}}},
		{"decomp=10", sim.Spec{Point: sim.Point{DecompCycles: 10}}},
		{"decomp=20", sim.Spec{Point: sim.Point{DecompCycles: 20}}},
		{"decomp=40", sim.Spec{Point: sim.Point{DecompCycles: 40}}},
	},
	"seeds": {
		{"seed=1", sim.Spec{Seed: 1}},
		{"seed=2", sim.Spec{Seed: 2}},
		{"seed=3", sim.Spec{Seed: 3}},
		{"seed=4", sim.Spec{Seed: 4}},
		{"seed=5", sim.Spec{Seed: 5}},
	},
}

func main() {
	run := sim.Spec{Cores: 8, Warmup: 200_000, Measure: 400_000, Seed: 1}
	run.BindFlags(flag.CommandLine)
	flag.StringVar(&run.Workload, "workload", "lbm06", "workload name")
	var out obs.Flags
	out.BindFlags(flag.CommandLine)
	var (
		kind     = flag.String("kind", "channels", "sweep: channels | llc | llp | mcache | decomp | seeds")
		scheme   = flag.String("scheme", ptmc.SchemeDynamicPTMC, "scheme under test")
		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0),
			"max concurrent simulations (output is identical at any value)")
		timeout = flag.Duration("timeout", 0,
			"per-simulation deadline (0 = none); timed-out points are reported, the sweep continues")
	)
	flag.Parse()
	out.ServePprof()

	points, ok := kinds[*kind]
	if !ok {
		fmt.Fprintf(os.Stderr, "sweep: unknown kind %q\n", *kind)
		os.Exit(1)
	}
	if *kind == "mcache" {
		*scheme = ptmc.SchemeTableTMC // metadata cache only exists there
	}

	run.Trace = out.Trace != ""

	fmt.Printf("sweep %s on %s (%s vs uncompressed)\n", *kind, run.Workload, *scheme)

	simulate := func(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
		cfg.MetricsInterval = out.MetricsInterval()
		return sim.RunContext(ctx, cfg)
	}
	rows, errs, _ := sweep(context.Background(), run, *scheme, points, *parallel, *timeout, out, simulate)
	os.Exit(report(os.Stdout, os.Stderr, rows, errs, *timeout))
}

// report prints the completed rows in sweep order to stdout, then every
// failed point to stderr, and returns the exit status: 1 if any point
// failed.
func report(stdout, stderr io.Writer, rows []string, errs []error, timeout time.Duration) (status int) {
	for i, err := range errs {
		if err == nil {
			fmt.Fprintln(stdout, rows[i])
		}
	}
	timedOut := 0
	for _, err := range errs {
		switch {
		case err == nil:
			continue
		case errors.Is(err, context.DeadlineExceeded):
			timedOut++
			fmt.Fprintf(stderr, "sweep: %v (timed out after %v)\n", err, timeout)
		default:
			fmt.Fprintln(stderr, "sweep:", err)
		}
		status = 1
	}
	if timedOut > 0 {
		fmt.Fprintf(stderr, "sweep: %d of %d points timed out (-timeout %v)\n",
			timedOut, len(errs), timeout)
	}
	return status
}

// sweep runs every point's uncompressed baseline and scheme-under-test
// simulation through one keyed result cache on a pool of parallel workers
// (exec.Cache.DoAll), each simulation under its own timeout. A point is a
// one-workload sim.Matrix over the run spec, so its cells key like any
// other matrix's: points whose runs cannot differ (a baseline that reads
// none of the point's fields) share one simulation. simulate is the
// simulation entry point (sim.RunContext when nil); a result with
// integrity errors fails its point (sim.RunSpec.Exec). Every point
// settles even if another fails: rows[i] is point i's report line when
// errs[i] is nil (a point's error is its baseline's, else its scheme's),
// and sims counts the simulations that ran. A point's metrics and trace
// files are written from its scheme-under-test result.
func sweep(ctx context.Context, run sim.Spec, scheme string, points []point, parallel int,
	timeout time.Duration, out obs.Flags, simulate func(context.Context, sim.Config) (*sim.Result, error)) (rows []string, errs []error, sims int) {
	var runs []sim.RunSpec
	for _, p := range points {
		runs = append(runs, sim.Matrix{Base: p.spec.Or(run), Workloads: []string{run.Workload},
			Schemes: []string{ptmc.SchemeUncompressed, scheme}}.Runs()...)
	}
	keys := make([]string, len(runs))
	for i, r := range runs {
		keys[i] = r.Key()
	}
	cache := exec.NewCache[*sim.Result](exec.NewPool(parallel))
	results, ran, runErrs := cache.DoAll(ctx, keys, timeout, func(ctx context.Context, i int) (*sim.Result, error) {
		r, err := runs[i].Exec(ctx, simulate)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", runs[i].Spec.Workload, runs[i].Scheme, err)
		}
		return r, nil
	})
	for _, ok := range ran {
		if ok {
			sims++
		}
	}

	rows = make([]string, len(points))
	errs = make([]error, len(points))
	for i, p := range points {
		b, r := results[2*i], results[2*i+1]
		err := exec.FirstError(runErrs[2*i : 2*i+2])
		if err == nil {
			pout := obs.Flags{Metrics: pointPath(out.Metrics, p.label), Trace: pointPath(out.Trace, p.label)}
			err = pout.WriteFiles(r.Metrics, r.TraceEvents)
		}
		if err != nil {
			errs[i] = fmt.Errorf("%s: %w", p.label, err)
			continue
		}
		rows[i] = row(p.label, r, b)
	}
	return rows, errs, sims
}

// row is a point's report line: the scheme-under-test result r against
// the baseline b.
func row(label string, r, b *sim.Result) string {
	return fmt.Sprintf("%-12s speedup=%.3f ipc=%.3f bw=%.3f llp=%.1f%% mpki=%.1f",
		label, r.WeightedSpeedupOver(b), r.IPC(), r.BandwidthOver(b),
		100*r.LLPAccuracy, r.MPKI)
}

// pointPath derives a per-point output file from the flag value by
// inserting the point label before the extension ("" stays "": the
// artifact was not requested).
func pointPath(base, label string) string {
	if base == "" {
		return ""
	}
	ext := filepath.Ext(base)
	return strings.TrimSuffix(base, ext) + "-" + label + ext
}
