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
// Points run concurrently up to -parallel workers; output prints in sweep
// order once every point has settled, so the report is identical at any
// worker count. A failing point does not abort the sweep: every point
// runs, completed rows print, the failures are listed afterwards, and only
// then does the process exit non-zero.
//
// -timeout bounds each point's wall-clock time (exec.JobOptions.Timeout):
// a point that exceeds its deadline is cancelled (the simulation aborts at
// its next cycle checkpoint), reported in the end-of-run summary as timed
// out, and the rest of the sweep continues.
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
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"

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
			"per-point deadline (0 = none); timed-out points are reported, the sweep continues")
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

	// Every point runs to completion even if another fails: the two schemes
	// of one point share the point's pool slot (CompareParallel at 1) so
	// distinct points, not scheme pairs, are the unit of fan-out.
	pool := exec.NewPool(*parallel)
	rows := make([]string, len(points))
	errs := make([]error, len(points))
	var wg sync.WaitGroup
	for i, p := range points {
		wg.Add(1)
		go func(i int, p point) {
			defer wg.Done()
			if err := pool.RunJob(context.Background(), exec.JobOptions{Timeout: *timeout}, func(ctx context.Context) error {
				cfg := p.spec.Or(run).Config(*scheme)
				cfg.MetricsInterval = out.MetricsInterval()
				rs, err := ptmc.CompareParallel(ctx, 1, cfg,
					ptmc.SchemeUncompressed, *scheme)
				if err != nil {
					return err
				}
				r := rs[*scheme]
				b := rs[ptmc.SchemeUncompressed]
				pout := obs.Flags{Metrics: pointPath(out.Metrics, p.label), Trace: pointPath(out.Trace, p.label)}
				if err := pout.WriteFiles(r.Metrics, r.TraceEvents); err != nil {
					return err
				}
				rows[i] = fmt.Sprintf("%-12s speedup=%.3f ipc=%.3f bw=%.3f llp=%.1f%% mpki=%.1f",
					p.label, r.WeightedSpeedupOver(b), r.IPC(), r.BandwidthOver(b),
					100*r.LLPAccuracy, r.MPKI)
				return nil
			}); err != nil {
				errs[i] = fmt.Errorf("%s: %w", p.label, err)
			}
		}(i, p)
	}
	wg.Wait()

	failed, timedOut := false, 0
	for i := range points {
		if errs[i] == nil {
			fmt.Println(rows[i])
		}
	}
	for i := range points {
		if errs[i] != nil {
			failed = true
			if errors.Is(errs[i], context.DeadlineExceeded) {
				timedOut++
				fmt.Fprintf(os.Stderr, "sweep: %v (timed out after %v)\n", errs[i], *timeout)
			} else {
				fmt.Fprintln(os.Stderr, "sweep:", errs[i])
			}
		}
	}
	if timedOut > 0 {
		fmt.Fprintf(os.Stderr, "sweep: %d of %d points timed out (-timeout %v)\n",
			timedOut, len(points), *timeout)
	}
	if failed {
		os.Exit(1)
	}
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
