// Command paperbench regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §3 for the experiment index and EXPERIMENTS.md
// for paper-vs-measured results).
//
// Usage:
//
//	paperbench                 # representative workloads, quick horizon
//	paperbench -full           # all 64 workloads, long horizon (slow)
//	paperbench -only fig15     # one experiment (t1,t2,...,t6,fig4..fig18,ablate)
//	paperbench -insts 2000000  # raise the measured horizon
//
// -cores, -warmup and -insts default to 0, which keeps the Quick (or
// -full) preset. -metrics and -trace instrument one extra reference run
// of -obs-workload under dynamic-ptmc at the harness horizon.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"ptmc"
	"ptmc/internal/obs"
	"ptmc/internal/paper"
	"ptmc/internal/sim"
)

func main() {
	over := sim.Spec{Seed: 1} // zero fields keep the Quick/Full preset
	over.BindFlags(flag.CommandLine)
	var out obs.Flags
	out.BindFlags(flag.CommandLine)
	var (
		full     = flag.Bool("full", false, "run the full 64-workload population (slow)")
		only     = flag.String("only", "", "comma-separated experiments (default: all)")
		quiet    = flag.Bool("quiet", false, "suppress per-run progress lines")
		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0),
			"max concurrent simulations (output is identical at any value)")
		obsWorkload = flag.String("obs-workload", "lbm06", "workload for the -metrics/-trace reference run")
		poolStats   = flag.Bool("poolstats", false, "print worker-pool queue-wait/run-time histograms at exit")
	)
	flag.Parse()
	out.ServePprof()

	opts := paper.Quick()
	if *full {
		opts = paper.Full()
	}
	opts.Run = over.Or(opts.Run)
	opts.Silent = *quiet

	r := paper.NewParallelRunner(opts, os.Stdout, *parallel)

	type experiment struct {
		name string
		run  func() error
	}
	experiments := []experiment{
		{"t1", func() error { r.TableI(); return nil }},
		{"t2", r.TableII},
		{"fig4", r.Figure4},
		{"fig5", r.Figure5},
		{"fig6", r.Figure6},
		{"fig9", r.Figure9},
		{"fig12", r.Figure12},
		{"fig14", r.Figure14},
		{"fig15", r.Figure15},
		{"t3", func() error { r.TableIII(); return nil }},
		{"fig17", r.Figure17},
		{"fig18", r.Figure18},
		{"t4", r.TableIV},
		{"t5", r.TableV},
		{"t6", r.TableVI},
		{"related", r.RelatedWork},
		{"ablate", func() error {
			if err := r.LLPAblation([]int{64, 256, 512, 2048}); err != nil {
				return err
			}
			r.MarkerWidthNote(16)
			return nil
		}},
	}

	selected := map[string]bool{}
	if *only != "" {
		for _, name := range strings.Split(*only, ",") {
			selected[strings.TrimSpace(name)] = true
		}
	}

	start := time.Now()
	for _, e := range experiments {
		if len(selected) > 0 && !selected[e.name] {
			continue
		}
		if err := e.run(); err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: %s: %v\n", e.name, err)
			os.Exit(1)
		}
	}

	// The experiment tables aggregate across dozens of runs, so the
	// observability artifacts come from one dedicated reference run at the
	// harness horizon rather than from every table cell.
	if out.Metrics != "" || out.Trace != "" {
		run := opts.Run
		run.Workload = *obsWorkload
		run.Trace = out.Trace != ""
		cfg := run.Config(ptmc.SchemeDynamicPTMC)
		cfg.MetricsInterval = out.MetricsInterval()
		res, err := ptmc.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: reference run: %v\n", err)
			os.Exit(1)
		}
		out.Write(res.Metrics, res.TraceEvents, res.TraceDropped)
	}

	if *poolStats {
		fmt.Println(r.Pool().QueueWait())
		fmt.Println(r.Pool().RunTime())
	}
	fmt.Printf("\npaperbench complete in %v\n", time.Since(start).Round(time.Second))
}
