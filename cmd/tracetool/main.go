// Command tracetool records and replays access traces (the trace-driven
// workflow of USIMM, which the paper's evaluation is built on).
//
//	tracetool record -workload lbm06 -ops 2000000 -out lbm06.trc
//	tracetool info   -in lbm06.trc
//	tracetool replay -in lbm06.trc -scheme dynamic-ptmc -baseline
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"ptmc"
	"ptmc/internal/sim"
	"ptmc/internal/trace"
	"ptmc/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "record":
		err = record(os.Args[2:])
	case "info":
		err = info(os.Args[2:])
	case "replay":
		err = replay(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracetool:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: tracetool {record|info|replay} [flags]")
	os.Exit(2)
}

func record(args []string) error {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	name := fs.String("workload", "lbm06", "workload to record")
	ops := fs.Int("ops", 1_000_000, "memory operations to record")
	out := fs.String("out", "trace.trc", "output file")
	seed := fs.Int64("seed", 1, "generator seed")
	fs.Parse(args)

	wl, err := workload.Lookup(*name)
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	w, err := trace.NewWriter(f, wl.Mix, *seed)
	if err != nil {
		return err
	}
	cap := trace.NewCapture(wl.NewStream(*seed), w)
	for i := 0; i < *ops; i++ {
		cap.Next()
	}
	if err := cap.Err(); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Printf("recorded %d ops of %s to %s\n", w.Events(), *name, *out)
	return nil
}

func info(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	in := fs.String("in", "trace.trc", "trace file")
	fs.Parse(args)

	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		return err
	}
	var events, writes, instr uint64
	lines := map[uint64]bool{}
	for {
		e, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return err
		}
		events++
		instr += uint64(e.Gap) + 1
		if e.Write {
			writes++
		}
		lines[e.VAddr>>6] = true
	}
	fmt.Printf("events:        %d\n", events)
	fmt.Printf("instructions:  %d (gaps included)\n", instr)
	fmt.Printf("write ratio:   %.1f%%\n", 100*float64(writes)/float64(events))
	fmt.Printf("distinct lines %d (%.1f MB touched)\n", len(lines), float64(len(lines))*64/(1<<20))
	fmt.Printf("value mix:     %d kinds, seed %d\n", len(r.Header.Mix), r.Header.Seed)
	return nil
}

func replay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	in := fs.String("in", "trace.trc", "trace file")
	scheme := fs.String("scheme", ptmc.SchemeDynamicPTMC, "scheme")
	baseline := fs.Bool("baseline", false, "also run uncompressed and report speedup")
	run := sim.Spec{Cores: 8, Warmup: 400_000, Measure: 400_000, Seed: 1}
	run.BindHorizon(fs)
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0), "max concurrent scheme simulations")
	fs.Parse(args)

	data, err := os.ReadFile(*in)
	if err != nil {
		return err
	}

	run.Workload = "trace:" + *in
	cfg := run.Config(*scheme)
	cfg.Sources = func(core int, seed int64) (workload.Source, error) {
		r, err := trace.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		rep, err := trace.NewReplay(r)
		if err != nil {
			return nil, err
		}
		// Stagger cores through the recording so rate mode does not run
		// in lockstep.
		for i := 0; i < core*rep.Len()/max(run.Cores, 1); i++ {
			rep.Next()
		}
		return rep, nil
	}

	schemes := []string{*scheme}
	if *baseline && *scheme != ptmc.SchemeUncompressed {
		schemes = append(schemes, ptmc.SchemeUncompressed)
	}
	rs, err := ptmc.CompareParallel(context.Background(), *parallel, cfg, schemes...)
	if err != nil {
		return err
	}
	r := rs[*scheme]
	fmt.Println(r)
	if base, ok := rs[ptmc.SchemeUncompressed]; ok && *scheme != ptmc.SchemeUncompressed {
		fmt.Printf("weighted speedup over uncompressed: %.3f\n", r.WeightedSpeedupOver(base))
	}
	return nil
}
