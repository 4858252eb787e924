// Command ptmcsim runs one workload under one memory-controller scheme and
// prints the measured statistics.
//
// Usage:
//
//	ptmcsim -workload lbm06 -scheme dynamic-ptmc [-baseline] [-insts N] ...
//
// With -baseline, the uncompressed baseline runs too and the weighted
// speedup is reported. -list prints the available workloads and schemes.
//
// With -inject N, ptmcsim instead runs an N-trial fault-injection campaign
// against the controller (seeded by -seed) and fails if any injected fault
// goes undetected without being harmless; cmd/faultprobe exposes the full
// campaign surface.
//
// Observability (see EXPERIMENTS.md "Observability"): -metrics out.json
// writes the per-window stats snapshot time series, -trace out.trace writes
// a Chrome trace-event file of controller events (load in chrome://tracing
// or Perfetto), and -pprof addr serves net/http/pprof while the run
// executes. All three also work in -inject mode.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"ptmc"
)

func main() {
	var (
		workloadName = flag.String("workload", "lbm06", "workload or mix name (-list to enumerate)")
		scheme       = flag.String("scheme", ptmc.SchemeDynamicPTMC, "memory-controller scheme")
		baseline     = flag.Bool("baseline", false, "also run the uncompressed baseline and report speedup")
		insts        = flag.Int64("insts", 400_000, "measured instructions per core")
		warmup       = flag.Int64("warmup", 700_000, "warmup instructions per core")
		cores        = flag.Int("cores", 8, "number of cores (rate mode)")
		channels     = flag.Int("channels", 2, "DRAM channels")
		l3MB         = flag.Int("l3mb", 8, "LLC size in MB")
		seed         = flag.Int64("seed", 1, "deterministic run seed")
		list         = flag.Bool("list", false, "list workloads and schemes, then exit")
		inject       = flag.Int("inject", 0, "run an N-trial fault-injection campaign instead of a simulation")
		parallel     = flag.Int("parallel", runtime.GOMAXPROCS(0),
			"max concurrent scheme simulations")
		metricsOut  = flag.String("metrics", "", "write the metrics snapshot time series to this JSON file")
		metricsIval = flag.Int64("metrics-interval", 10_000, "snapshot window in CPU cycles (with -metrics)")
		traceOut    = flag.String("trace", "", "write controller events to this Chrome trace-event JSON file")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	)
	flag.Parse()

	if *pprofAddr != "" {
		addr, err := ptmc.StartPprof(*pprofAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ptmcsim:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "pprof: http://%s/debug/pprof/\n", addr)
	}

	if *list {
		fmt.Println("schemes: ", strings.Join(ptmc.Schemes(), " "))
		fmt.Println("workloads:")
		for _, w := range ptmc.Workloads() {
			fmt.Println("  " + w)
		}
		return
	}

	if *inject > 0 {
		rep, err := ptmc.RunFaultCampaign(context.Background(), ptmc.FaultConfig{
			Trials:  *inject,
			Seed:    *seed,
			Dynamic: *scheme == ptmc.SchemeDynamicPTMC,
			Trace:   *traceOut != "",
			Metrics: *metricsOut != "",
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "ptmcsim:", err)
			os.Exit(1)
		}
		fmt.Printf("fault campaign: %d trials, seed %d\n", len(rep.Trials), *seed)
		fmt.Print(rep.Summary())
		if *metricsOut != "" {
			writeFile(*metricsOut, "metrics", rep.Metrics.WriteJSON)
		}
		if *traceOut != "" {
			writeFile(*traceOut, "trace", func(w io.Writer) error {
				return ptmc.WriteChromeTrace(w, rep.TraceEvents)
			})
			fmt.Printf("trace: %d events (%d dropped) -> %s\n",
				len(rep.TraceEvents), rep.TraceDropped, *traceOut)
		}
		if rep.Silent != 0 {
			fmt.Fprintf(os.Stderr, "ptmcsim: %d SILENT corruptions\n", rep.Silent)
			os.Exit(1)
		}
		fmt.Println("no silent corruptions")
		return
	}

	cfg := ptmc.DefaultConfig()
	cfg.Workload = *workloadName
	cfg.Scheme = *scheme
	cfg.MeasureInstr = *insts
	cfg.WarmupInstr = *warmup
	cfg.Cores = *cores
	cfg.DRAM.Channels = *channels
	cfg.L3Bytes = *l3MB << 20
	cfg.Seed = *seed
	if *metricsOut != "" {
		cfg.MetricsInterval = *metricsIval
	}
	cfg.Trace = *traceOut != ""

	schemes := []string{*scheme}
	if *baseline && *scheme != ptmc.SchemeUncompressed {
		schemes = append(schemes, ptmc.SchemeUncompressed)
	}
	results, err := ptmc.CompareParallel(context.Background(), *parallel, cfg, schemes...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ptmcsim:", err)
		os.Exit(1)
	}

	r := results[*scheme]
	if *metricsOut != "" {
		writeFile(*metricsOut, "metrics", r.Metrics.WriteJSON)
	}
	if *traceOut != "" {
		writeFile(*traceOut, "trace", func(w io.Writer) error {
			return ptmc.WriteChromeTrace(w, r.TraceEvents)
		})
		fmt.Printf("trace: %d events (%d dropped) -> %s\n",
			len(r.TraceEvents), r.TraceDropped, *traceOut)
	}
	fmt.Println(r)
	fmt.Printf("cycles=%d instructions=%d\n", r.Cycles, r.Instructions)
	fmt.Printf("bandwidth: demandR=%d mispredictR=%d metadataR=%d prefetchR=%d\n",
		r.Mem.DemandReads, r.Mem.MispredictReads, r.Mem.MetadataReads, r.Mem.PrefetchReads)
	fmt.Printf("           dirtyW=%d cleanCompW=%d invalidateW=%d metadataW=%d\n",
		r.Mem.DirtyWrites, r.Mem.CleanCompIntoW, r.Mem.Invalidates, r.Mem.MetadataWrites)
	fmt.Printf("compression: 4:1=%d 2:1=%d singles=%d freeInstalls=%d usefulFree=%d coalesced=%d\n",
		r.Mem.Groups4, r.Mem.Groups2, r.Mem.SinglesWrit, r.Mem.FreeInstalls,
		r.Mem.UsefulFreePf, r.Mem.CoalescedReads)
	fmt.Printf("robustness: inversions=%d rekeys=%d integrityErrs=%d\n",
		r.Mem.Inversions, r.Mem.ReKeys, r.Mem.IntegrityErrs)
	fmt.Printf("energy: %.3f J (%.2f W), EDP %.4g Js\n",
		r.Energy.TotalJ, r.Energy.AvgWatts, r.Energy.EDP)

	if base, ok := results[ptmc.SchemeUncompressed]; ok && *scheme != ptmc.SchemeUncompressed {
		fmt.Printf("weighted speedup over uncompressed: %.3f\n", r.WeightedSpeedupOver(base))
		fmt.Printf("bandwidth vs uncompressed: %.3f\n", r.BandwidthOver(base))
	}
}

// writeFile writes one observability artifact, exiting on failure so a
// requested -metrics/-trace file is never silently missing or truncated.
func writeFile(path, what string, write func(io.Writer) error) {
	f, err := os.Create(path)
	if err == nil {
		err = write(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "ptmcsim: write %s: %v\n", what, err)
		os.Exit(1)
	}
}
