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
	"os"
	"runtime"
	"strings"

	"ptmc"
	"ptmc/internal/obs"
	"ptmc/internal/sim"
)

func main() {
	run := sim.Spec{Cores: 8, Warmup: 700_000, Measure: 400_000, Seed: 1}
	run.BindFlags(flag.CommandLine)
	flag.StringVar(&run.Workload, "workload", "lbm06", "workload or mix name (-list to enumerate)")
	var out obs.Flags
	out.BindFlags(flag.CommandLine)
	var (
		scheme   = flag.String("scheme", ptmc.SchemeDynamicPTMC, "memory-controller scheme")
		baseline = flag.Bool("baseline", false, "also run the uncompressed baseline and report speedup")
		channels = flag.Int("channels", 2, "DRAM channels")
		l3MB     = flag.Int("l3mb", 8, "LLC size in MB")
		list     = flag.Bool("list", false, "list workloads and schemes, then exit")
		inject   = flag.Int("inject", 0, "run an N-trial fault-injection campaign instead of a simulation")
		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0), "max concurrent scheme simulations")
	)
	flag.Parse()
	out.ServePprof()

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
			Seed:    run.Seed,
			Dynamic: *scheme == ptmc.SchemeDynamicPTMC,
			Trace:   out.Trace != "",
			Metrics: out.Metrics != "",
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "ptmcsim:", err)
			os.Exit(1)
		}
		fmt.Printf("fault campaign: %d trials, seed %d\n", len(rep.Trials), run.Seed)
		fmt.Print(rep.Summary())
		out.Write(rep.Metrics, rep.TraceEvents, rep.TraceDropped)
		if rep.Silent != 0 {
			fmt.Fprintf(os.Stderr, "ptmcsim: %d SILENT corruptions\n", rep.Silent)
			os.Exit(1)
		}
		fmt.Println("no silent corruptions")
		return
	}

	run.Trace = out.Trace != ""
	cfg := run.Config(*scheme)
	cfg.DRAM.Channels = *channels
	cfg.L3Bytes = *l3MB << 20
	cfg.MetricsInterval = out.MetricsInterval()

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
	out.Write(r.Metrics, r.TraceEvents, r.TraceDropped)
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
