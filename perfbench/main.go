// Command perfbench is the repository's performance benchmark: host time
// and memory the simulator spends on fixed simulations, checked for
// correct output, plus a traced mode that attributes host time to the
// simulator's layers.
//
//	perfbench --workload mix1-dynamic --seed 7 --seconds 60 --trace 0
//
// With --trace 0 it runs the workload repeatedly, each run in a fresh child
// process, for --seconds, and reports the end-to-end metrics: throughput
// over the whole invocation, the other host timings as medians. With
// --trace 1 it runs the workload once more with a timing source wrapper
// and the controller event trace, replays the captured streams through
// each layer in isolation, and reports per-layer metrics and the
// attribution row. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. See README.md.
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: mix1-dynamic, mix1-uncompressed or lowmlp-dynamic")
		seed    = flag.Int64("seed", defaultSeed, "workload seed (Config.Seed)")
		seconds = flag.Float64("seconds", 20, "how long to measure, in seconds")
		trace   = flag.Int("trace", 0, "1 = traced run with per-layer attribution")
		child   = flag.String("child", "", "internal: run one simulation in this process (timed or traced)")
	)
	flag.Parse()
	w, err := lookupSpec(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if *child != "" {
		os.Exit(childMain(w, *seed, *child == "traced"))
	}
	var out *summary
	if *trace == 1 {
		out, err = traced(w, *seed, *seconds)
	} else {
		out, err = timed(w, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := out.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}
