package paper

import (
	"fmt"

	"ptmc/internal/core"
	"ptmc/internal/sim"
	"ptmc/internal/stats"
)

// TableI prints the simulated system configuration.
func (r *Runner) TableI() {
	r.header("Table I: system configuration")
	cfg := sim.Default()
	fmt.Fprintf(r.Out, "Processors        %d cores; %.1f GHz, %d-wide OoO, %d-entry ROB\n",
		cfg.Cores, cfg.CPUFreqGHz, cfg.Core.FetchWidth, cfg.Core.ROB)
	fmt.Fprintf(r.Out, "L1 / L2 (private) %d KB %d-way / %d KB %d-way\n",
		cfg.L1Bytes>>10, cfg.L1Assoc, cfg.L2Bytes>>10, cfg.L2Assoc)
	fmt.Fprintf(r.Out, "Last-Level Cache  %d MB, %d-way\n", cfg.L3Bytes>>20, cfg.L3Assoc)
	fmt.Fprintf(r.Out, "Compression       FPC + BDI hybrid, %d-cycle decompression\n", 5)
	fmt.Fprintf(r.Out, "Main Memory       %d GB\n", cfg.MemBytes>>30)
	fmt.Fprintf(r.Out, "Bus Frequency     800 MHz (DDR 1.6 GT/s), %d channels, %d ranks, %d banks\n",
		cfg.DRAM.Channels, cfg.DRAM.RanksPerChannel, cfg.DRAM.BanksPerRank)
	fmt.Fprintf(r.Out, "tCAS-tRCD-tRP-tRAS %d-%d-%d-%d bus cycles\n",
		cfg.DRAM.TCAS, cfg.DRAM.TRCD, cfg.DRAM.TRP, cfg.DRAM.TRAS)
}

// TableII measures each workload's L3 MPKI and footprint under the
// uncompressed baseline (the paper's workload-characteristics table).
func (r *Runner) TableII() error {
	r.header("Table II: workload characteristics (measured)")
	fmt.Fprintf(r.Out, "%-10s %-14s %8s %12s %12s\n",
		"suite", "workload", "L3 MPKI", "decl.footpr", "touched")
	wls := append(append([]string{}, r.Opts.spec()...), r.Opts.graph()...)
	rows, err := r.Results(r.matrix(wls, sim.SchemeUncompressed))
	if err != nil {
		return err
	}
	for i, wl := range wls {
		res := rows[i][0]
		w, _ := lookupWorkload(wl)
		fmt.Fprintf(r.Out, "%-10s %-14s %8.1f %9d MB %9d MB\n",
			w.Suite, wl, res.MPKI, w.FootprintBytes>>20, res.FootprintBytes>>20)
	}
	return nil
}

// TableIII reports the storage overhead of PTMC's structures; total must be
// under 300 bytes.
func (r *Runner) TableIII() {
	r.header("Table III: storage overhead of PTMC structures")
	lit := core.NewLIT(core.LITReKey).StorageBytes()
	llp := core.NewLLP(core.LLPEntries).StorageBytes()
	dyn := core.NewDynamic(8192, 8, 0.01, true).StorageBytes()
	rows := []struct {
		name  string
		bytes int
	}{
		{"Marker for 2-to-1", 4},
		{"Marker for 4-to-1", 4},
		{"Marker for Invalid Line", 64},
		{"Line Inversion Table (LIT)", lit},
		{"Line Location Predictor (LLP)", llp},
		{"Dynamic-PTMC counters", dyn},
	}
	total := 0
	for _, row := range rows {
		fmt.Fprintf(r.Out, "%-32s %4d bytes\n", row.name, row.bytes)
		total += row.bytes
	}
	fmt.Fprintf(r.Out, "%-32s %4d bytes (paper: < 300)\n", "Total", total)
}

// TableIV sweeps the channel count: average Dynamic-PTMC speedup with 1, 2
// and 4 channels. The paper's claim: the benefit persists across channel
// counts (it is a latency/bandwidth-free-prefetch effect, not a queueing
// artifact).
func (r *Runner) TableIV() error {
	r.header("Table IV: sensitivity to number of memory channels")
	fmt.Fprintf(r.Out, "%10s %12s\n", "channels", "avg speedup")
	m := r.matrix(r.Opts.spec(), sim.SchemeUncompressed, sim.SchemeDynamicPTMC)
	m.Points = []sim.Point{{Channels: 1}, {Channels: 2}, {Channels: 4}}
	rows, err := r.Results(m)
	if err != nil {
		return err
	}
	for k, p := range m.Points {
		var vs []float64
		for w := range m.Workloads {
			vs = append(vs, speedup(rows[w*len(m.Points)+k], 1))
		}
		fmt.Fprintf(r.Out, "%10d %11.1f%%\n", p.Channels, 100*(stats.GeoMean(vs)-1))
	}
	return nil
}

// TableV reports the L3 hit rate of the baseline and Dynamic-PTMC per
// suite. The paper's claim: the freely installed neighbor lines raise the
// L3 hit rate (17.3% -> 23.9% on SPEC).
func (r *Runner) TableV() error {
	r.header("Table V: effect of PTMC on L3 hit rate")
	// Under this model's high memory-level parallelism, most of the
	// free-fetch benefit is consumed *before* lines could produce L3 hits:
	// a neighbor's demand coalesces onto the in-flight group burst. The
	// free-served column reports that fraction — the modern-MLP
	// equivalent of the paper's L3-hit-rate delta.
	fmt.Fprintf(r.Out, "%-8s %10s %14s %12s\n", "suite", "baseline", "dynamic-ptmc", "free-served")
	suites, wls := r.suites()
	rows, err := r.Results(r.matrix(wls, sim.SchemeUncompressed, sim.SchemeDynamicPTMC))
	if err != nil {
		return err
	}
	for _, s := range suites {
		suite := rows[:len(s.wls)]
		rows = rows[len(s.wls):]
		if len(suite) == 0 {
			continue
		}
		var b, d, free float64
		for _, row := range suite {
			base, dyn := row[0], row[1]
			b += base.L3.HitRate()
			d += dyn.L3.HitRate()
			served := float64(dyn.Mem.CoalescedReads)
			free += served / (served + float64(dyn.Mem.DemandReads))
		}
		n := float64(len(suite))
		fmt.Fprintf(r.Out, "%-8s %9.1f%% %13.1f%% %11.1f%%\n",
			s.name, 100*b/n, 100*d/n, 100*free/n)
	}
	return nil
}

// TableVI compares next-line prefetching against Dynamic-PTMC per suite.
// The paper's claim: prefetching pays full bandwidth for its speculation
// and loses where PTMC's bandwidth-free installs win.
func (r *Runner) TableVI() error {
	r.header("Table VI: next-line prefetch vs Dynamic-PTMC (avg speedup)")
	fmt.Fprintf(r.Out, "%-8s %12s %14s\n", "suite", "next-line", "dynamic-ptmc")
	suites, wls := r.suites()
	rows, err := r.Results(r.matrix(wls, sim.SchemeUncompressed, sim.SchemeNextLine, sim.SchemeDynamicPTMC))
	if err != nil {
		return err
	}
	for _, s := range suites {
		suite := rows[:len(s.wls)]
		rows = rows[len(s.wls):]
		if len(suite) == 0 {
			continue
		}
		var nl, dp []float64
		for _, row := range suite {
			nl, dp = append(nl, speedup(row, 1)), append(dp, speedup(row, 2))
		}
		fmt.Fprintf(r.Out, "%-8s %+11.1f%% %+13.1f%%\n", s.name,
			100*(stats.GeoMean(nl)-1), 100*(stats.GeoMean(dp)-1))
	}
	return nil
}
