// Command faultprobe attacks a live PTMC controller with seeded fault
// injection and adjudicates every trial: each injected fault must be
// detected (a degradation counter moves, or image verification returns a
// typed error) or harmless (the image still verifies, with nothing latent
// after an LLC flush). A silent corruption — the outcome the design must
// make impossible — fails the probe with a non-zero exit.
//
// Usage:
//
//	faultprobe -trials 1000 -seed 1
//	faultprobe -kinds marker-flip,tombstone -v
//	faultprobe -dynamic            # attack Dynamic-PTMC's gated controller
//	faultprobe -nohurt             # adversarial no-hurt experiment instead
//	faultprobe -metrics m.json -trace t.trace -pprof localhost:6060
//
// The campaign is deterministic in (-seed, -trials, -kinds, -dynamic): a
// failing seed is a reproducer. -metrics writes the per-trial
// detection-counter windows.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"ptmc"
	"ptmc/internal/obs"
	"ptmc/internal/sim"
)

func main() {
	var (
		trials  = flag.Int("trials", 1000, "fault injections to run")
		seed    = flag.Int64("seed", 1, "campaign seed (replays exactly)")
		kinds   = flag.String("kinds", "", "comma-separated fault kinds (default: all)")
		dynamic = flag.Bool("dynamic", false, "attack Dynamic-PTMC instead of static PTMC")
		nohurt  = flag.Bool("nohurt", false, "run the adversarial no-hurt experiment instead of injection")
		timeout = flag.Duration("timeout", 0, "overall deadline (0 = none)")
		verbose = flag.Bool("v", false, "print every trial")
		list    = flag.Bool("list", false, "list fault kinds, then exit")
	)
	var out obs.Flags
	out.BindArtifacts(flag.CommandLine)
	out.BindPprof(flag.CommandLine)
	flag.Parse()
	out.ServePprof()

	if *list {
		names := make([]string, 0, len(ptmc.FaultKinds()))
		for _, k := range ptmc.FaultKinds() {
			names = append(names, k.String())
		}
		fmt.Println("fault kinds:", strings.Join(names, " "))
		return
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *nohurt {
		runNoHurt(ctx)
		return
	}

	cfg := ptmc.FaultConfig{
		Trials:  *trials,
		Seed:    *seed,
		Dynamic: *dynamic,
		Trace:   out.Trace != "",
		Metrics: out.Metrics != "",
	}
	for _, name := range strings.Split(*kinds, ",") {
		if name = strings.TrimSpace(name); name == "" {
			continue
		}
		k, err := ptmc.ParseFaultKind(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "faultprobe:", err)
			os.Exit(2)
		}
		cfg.Kinds = append(cfg.Kinds, k)
	}

	start := time.Now()
	rep, err := ptmc.RunFaultCampaign(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "faultprobe:", err)
		os.Exit(1)
	}
	if *verbose {
		for _, t := range rep.Trials {
			fmt.Printf("trial %4d  %-24s %-16s %s\n",
				t.Trial, t.Injection, t.Outcome, t.Detector)
		}
	}
	fmt.Printf("faultprobe: %d trials (seed %d) in %v\n",
		len(rep.Trials), cfg.Seed, time.Since(start).Round(time.Millisecond))
	fmt.Print(rep.Summary())
	fmt.Printf("degradations: undecodable=%d fallback=%d litSpills=%d integrityErrs=%d rekeys=%d\n",
		rep.Stats.UndecodableUnits, rep.Stats.FallbackReads, rep.Stats.LITSpills,
		rep.Stats.IntegrityErrs, rep.Stats.ReKeys)
	fmt.Printf("final image verification: %d lines OK\n", rep.Verified)
	out.Write(rep.Metrics, rep.TraceEvents, rep.TraceDropped)
	if rep.Silent != 0 {
		fmt.Fprintf(os.Stderr, "faultprobe: %d SILENT corruptions — soundness bug\n", rep.Silent)
		os.Exit(1)
	}
	fmt.Println("no silent corruptions")
}

func runNoHurt(ctx context.Context) {
	cfg := sim.Spec{Cores: 2, Warmup: 120_000, Measure: 120_000, Seed: 1}.Config(ptmc.SchemeDynamicPTMC)
	cfg.L3Bytes = 256 << 10
	cfg.L3Assoc = 8
	cfg.SampleFrac = 0.05
	rep, err := ptmc.RunNoHurt(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "faultprobe:", err)
		os.Exit(1)
	}
	fmt.Println(rep)
	if rep.StaticBW > 1.0 && !rep.CompressionDisabled {
		fmt.Fprintln(os.Stderr, "faultprobe: attack hurt static PTMC but Dynamic-PTMC never disabled compression")
		os.Exit(1)
	}
	fmt.Println("no-hurt guarantee held")
}
