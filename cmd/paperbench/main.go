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
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"ptmc"
	"ptmc/internal/paper"
)

func main() {
	var (
		full     = flag.Bool("full", false, "run the full 64-workload population (slow)")
		only     = flag.String("only", "", "comma-separated experiments (default: all)")
		insts    = flag.Int64("insts", 0, "override measured instructions per core")
		warmup   = flag.Int64("warmup", 0, "override warmup instructions per core")
		cores    = flag.Int("cores", 0, "override core count")
		seed     = flag.Int64("seed", 1, "run seed")
		quiet    = flag.Bool("quiet", false, "suppress per-run progress lines")
		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0),
			"max concurrent simulations (output is identical at any value)")

		metricsOut = flag.String("metrics", "",
			"run an instrumented reference simulation (-obs-workload, dynamic-ptmc) and write its snapshot series here")
		metricsIval = flag.Int64("metrics-interval", 10_000, "snapshot window in CPU cycles (with -metrics)")
		traceOut    = flag.String("trace", "",
			"write the reference simulation's controller events here (Chrome trace-event JSON)")
		obsWorkload = flag.String("obs-workload", "lbm06", "workload for the -metrics/-trace reference run")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		poolStats   = flag.Bool("poolstats", false, "print worker-pool queue-wait/run-time histograms at exit")
	)
	flag.Parse()

	if *pprofAddr != "" {
		addr, err := ptmc.StartPprof(*pprofAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "paperbench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "pprof: http://%s/debug/pprof/\n", addr)
	}

	opts := paper.Quick()
	if *full {
		opts = paper.Full()
	}
	if *insts > 0 {
		opts.Measure = *insts
	}
	if *warmup > 0 {
		opts.Warmup = *warmup
	}
	if *cores > 0 {
		opts.Cores = *cores
	}
	opts.Seed = *seed
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
	if *metricsOut != "" || *traceOut != "" {
		cfg := ptmc.DefaultConfig()
		cfg.Workload = *obsWorkload
		cfg.Scheme = ptmc.SchemeDynamicPTMC
		cfg.Cores = opts.Cores
		cfg.WarmupInstr = opts.Warmup
		cfg.MeasureInstr = opts.Measure
		cfg.Seed = opts.Seed
		if *metricsOut != "" {
			cfg.MetricsInterval = *metricsIval
		}
		cfg.Trace = *traceOut != ""
		res, err := ptmc.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: reference run: %v\n", err)
			os.Exit(1)
		}
		if *metricsOut != "" {
			writeFile(*metricsOut, res.Metrics.WriteJSON)
		}
		if *traceOut != "" {
			writeFile(*traceOut, func(w io.Writer) error {
				return ptmc.WriteChromeTrace(w, res.TraceEvents)
			})
			fmt.Printf("trace: %d events (%d dropped) -> %s\n",
				len(res.TraceEvents), res.TraceDropped, *traceOut)
		}
	}

	if *poolStats {
		fmt.Println(r.Pool().QueueWait())
		fmt.Println(r.Pool().RunTime())
	}
	fmt.Printf("\npaperbench complete in %v\n", time.Since(start).Round(time.Second))
}

// writeFile writes one observability artifact, exiting on failure so a
// requested -metrics/-trace file is never silently missing or truncated.
func writeFile(path string, write func(io.Writer) error) {
	f, err := os.Create(path)
	if err == nil {
		err = write(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "paperbench: write %s: %v\n", path, err)
		os.Exit(1)
	}
}
