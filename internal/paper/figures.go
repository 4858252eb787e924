package paper

import (
	"context"
	"fmt"

	"ptmc/internal/compress"
	"ptmc/internal/core"
	"ptmc/internal/sim"
	"ptmc/internal/stats"
	"ptmc/internal/workload"
)

// Figure4 reproduces the bandwidth-breakdown bars for table-based TMC:
// data traffic, additional (compression-induced) writes, and metadata
// accesses, normalized to the uncompressed baseline. The paper's claim:
// metadata alone can exceed 50% extra bandwidth on graph workloads.
func (r *Runner) Figure4() error {
	r.header("Figure 4: bandwidth of Table-TMC, normalized to uncompressed")
	fmt.Fprintf(r.Out, "%-14s %8s %8s %8s %8s\n", "workload", "data", "extraWr", "metadata", "total")
	wls := append(append([]string{}, r.Opts.spec()...), r.Opts.graph()...)
	if err := r.Prefetch(jobsFor(wls, sim.SchemeUncompressed, sim.SchemeTableTMC)...); err != nil {
		return err
	}
	for _, wl := range wls {
		base, err := r.Result(wl, sim.SchemeUncompressed, "", nil)
		if err != nil {
			return err
		}
		tt, err := r.Result(wl, sim.SchemeTableTMC, "", nil)
		if err != nil {
			return err
		}
		norm := float64(base.Mem.Total())
		data := float64(tt.Mem.DemandReads+tt.Mem.DirtyWrites) / norm
		extra := float64(tt.Mem.CleanCompIntoW) / norm
		meta := float64(tt.Mem.MetadataReads+tt.Mem.MetadataWrites) / norm
		fmt.Fprintf(r.Out, "%-14s %8.3f %8.3f %8.3f %8.3f\n",
			wl, data, extra, meta, data+extra+meta)
	}
	return nil
}

// Figure5 compares ideal TMC (no metadata) against table-based TMC.
// The paper's claim: ideal gains ~12% while the table-based design loses
// up to 49% on graph workloads.
func (r *Runner) Figure5() error {
	r.header("Figure 5: speedup of Ideal TMC vs TMC-with-metadata")
	fmt.Fprintf(r.Out, "%-14s %10s %10s\n", "workload", "ideal", "table-tmc")
	wls := append(append([]string{}, r.Opts.spec()...), r.Opts.graph()...)
	if err := r.Prefetch(jobsFor(wls, sim.SchemeUncompressed, sim.SchemeIdeal, sim.SchemeTableTMC)...); err != nil {
		return err
	}
	var ideals, tables []float64
	for _, wl := range wls {
		si, err := r.speedup(wl, sim.SchemeIdeal)
		if err != nil {
			return err
		}
		st, err := r.speedup(wl, sim.SchemeTableTMC)
		if err != nil {
			return err
		}
		ideals = append(ideals, si)
		tables = append(tables, st)
		fmt.Fprintf(r.Out, "%-14s %10.3f %10.3f\n", wl, si, st)
	}
	fmt.Fprintf(r.Out, "%-14s %10.3f %10.3f\n", "GEOMEAN",
		stats.GeoMean(ideals), stats.GeoMean(tables))
	return nil
}

// Figure6 measures, offline, the probability that a pair of adjacent lines
// compresses to 64 bytes and to 60 bytes. The paper's claim: reserving 4
// bytes for the marker costs little compressibility (38% -> 36% on
// average).
func (r *Runner) Figure6() error {
	r.header("Figure 6: fraction of adjacent pairs compressing to 64B / 60B")
	fmt.Fprintf(r.Out, "%-14s %10s %10s\n", "workload", "to-64B", "to-60B")
	alg := compress.Hybrid{}
	wls := append(append([]string{}, r.Opts.spec()...), r.Opts.graph()...)
	// The offline pair scan is CPU-bound with no shared state, so each
	// workload's row computes in parallel; rows print in workload order
	// afterwards so the report bytes match a serial run.
	v64s, v60s := make([]float64, len(wls)), make([]float64, len(wls))
	err := r.pool.ForEach(context.Background(), len(wls), func(ctx context.Context, i int) error {
		w, err := workload.Lookup(wls[i])
		if err != nil {
			return err
		}
		s := w.NewStream(r.Opts.Run.Seed)
		const pairs = 4000
		fit64, fit60 := 0, 0
		l0, l1 := make([]byte, 64), make([]byte, 64)
		pair := [][]byte{l0, l1}
		var buf []byte
		var ok bool
		for p := 0; p < pairs; p++ {
			vline := uint64(p) * 2
			s.FillLine(vline, l0)
			s.FillLine(vline+1, l1)
			if buf, ok = compress.AppendCompressGroup(alg, buf[:0], pair, 64); ok {
				fit64++
			}
			if buf, ok = compress.AppendCompressGroup(alg, buf[:0], pair, 60); ok {
				fit60++
			}
		}
		v64s[i] = float64(fit64) / pairs
		v60s[i] = float64(fit60) / pairs
		return nil
	})
	if err != nil {
		return err
	}
	for i, wl := range wls {
		fmt.Fprintf(r.Out, "%-14s %9.1f%% %9.1f%%\n", wl, 100*v64s[i], 100*v60s[i])
	}
	a64, a60 := 0.0, 0.0
	for i := range v64s {
		a64 += v64s[i]
		a60 += v60s[i]
	}
	fmt.Fprintf(r.Out, "%-14s %9.1f%% %9.1f%%\n", "AVERAGE",
		100*a64/float64(len(v64s)), 100*a60/float64(len(v60s)))
	return nil
}

// Figure9 compares the metadata-cache hit rate of the table-based design
// with the LLP's location-prediction accuracy. The paper's claim: a 128 B
// LLP reaches ~98%, beating a 32 KB metadata cache.
func (r *Runner) Figure9() error {
	r.header("Figure 9: metadata-cache hit rate vs LLP accuracy")
	fmt.Fprintf(r.Out, "%-14s %10s %10s\n", "workload", "mcache", "LLP")
	wls := append(append([]string{}, r.Opts.spec()...), r.Opts.graph()...)
	if err := r.Prefetch(jobsFor(wls, sim.SchemeTableTMC, sim.SchemePTMC)...); err != nil {
		return err
	}
	var mc, llp []float64
	for _, wl := range wls {
		tt, err := r.Result(wl, sim.SchemeTableTMC, "", nil)
		if err != nil {
			return err
		}
		pt, err := r.Result(wl, sim.SchemePTMC, "", nil)
		if err != nil {
			return err
		}
		mc = append(mc, tt.MCacheHitRate)
		llp = append(llp, pt.LLPAccuracy)
		fmt.Fprintf(r.Out, "%-14s %9.1f%% %9.1f%%\n",
			wl, 100*tt.MCacheHitRate, 100*pt.LLPAccuracy)
	}
	am, al := 0.0, 0.0
	for i := range mc {
		am += mc[i]
		al += llp[i]
	}
	fmt.Fprintf(r.Out, "%-14s %9.1f%% %9.1f%%\n", "AVERAGE",
		100*am/float64(len(mc)), 100*al/float64(len(llp)))
	return nil
}

// Figure12 compares table-based TMC with static PTMC per workload. The
// paper's claim: eliminating the metadata lookup helps everywhere, but
// static PTMC still hurts graph workloads.
func (r *Runner) Figure12() error {
	r.header("Figure 12: speedup of Table-TMC vs PTMC (inline metadata + LLP)")
	fmt.Fprintf(r.Out, "%-14s %10s %10s\n", "workload", "table-tmc", "ptmc")
	wls := r.figure12Set()
	if err := r.Prefetch(jobsFor(wls, sim.SchemeUncompressed, sim.SchemeTableTMC, sim.SchemePTMC)...); err != nil {
		return err
	}
	var ts, ps []float64
	for _, wl := range wls {
		st, err := r.speedup(wl, sim.SchemeTableTMC)
		if err != nil {
			return err
		}
		sp, err := r.speedup(wl, sim.SchemePTMC)
		if err != nil {
			return err
		}
		ts = append(ts, st)
		ps = append(ps, sp)
		fmt.Fprintf(r.Out, "%-14s %10.3f %10.3f\n", wl, st, sp)
	}
	fmt.Fprintf(r.Out, "%-14s %10.3f %10.3f\n", "GEOMEAN", stats.GeoMean(ts), stats.GeoMean(ps))
	return nil
}

func (r *Runner) figure12Set() []string {
	wls := append(append([]string{}, r.Opts.spec()...), r.Opts.graph()...)
	return append(wls, r.Opts.mixes()...)
}

// Figure14 reproduces PTMC's bandwidth breakdown: data, clean-evict +
// invalidate maintenance, and LLP-mispredict re-reads, normalized to the
// uncompressed baseline. The paper's claim: for graph workloads the
// maintenance term dominates — the motivation for Dynamic-PTMC.
func (r *Runner) Figure14() error {
	r.header("Figure 14: bandwidth of PTMC, normalized to uncompressed")
	fmt.Fprintf(r.Out, "%-14s %8s %10s %10s %8s\n", "workload", "data", "clean+inv", "mispredict", "total")
	wls := append(append([]string{}, r.Opts.spec()...), r.Opts.graph()...)
	if err := r.Prefetch(jobsFor(wls, sim.SchemeUncompressed, sim.SchemePTMC)...); err != nil {
		return err
	}
	for _, wl := range wls {
		base, err := r.Result(wl, sim.SchemeUncompressed, "", nil)
		if err != nil {
			return err
		}
		pt, err := r.Result(wl, sim.SchemePTMC, "", nil)
		if err != nil {
			return err
		}
		norm := float64(base.Mem.Total())
		data := float64(pt.Mem.DemandReads+pt.Mem.DirtyWrites) / norm
		maint := float64(pt.Mem.CleanCompIntoW+pt.Mem.Invalidates) / norm
		mis := float64(pt.Mem.MispredictReads) / norm
		fmt.Fprintf(r.Out, "%-14s %8.3f %10.3f %10.3f %8.3f\n",
			wl, data, maint, mis, data+maint+mis)
	}
	return nil
}

// Figure15 is the headline comparison: Table-TMC, static PTMC,
// Dynamic-PTMC, and the ideal upper bound. The paper's claims: Dynamic-PTMC
// never loses (worst case within 1%), gains up to ~74%, and lands near
// two-thirds of ideal.
func (r *Runner) Figure15() error {
	r.header("Figure 15: speedup of TMC, Static-PTMC, Dynamic-PTMC, Ideal")
	fmt.Fprintf(r.Out, "%-14s %10s %10s %12s %10s\n",
		"workload", "table-tmc", "ptmc", "dynamic-ptmc", "ideal")
	wls := r.figure12Set()
	per := map[string][]float64{}
	schemes := []string{sim.SchemeTableTMC, sim.SchemePTMC, sim.SchemeDynamicPTMC, sim.SchemeIdeal}
	if err := r.Prefetch(jobsFor(wls, append([]string{sim.SchemeUncompressed}, schemes...)...)...); err != nil {
		return err
	}
	for _, wl := range wls {
		row := make([]float64, len(schemes))
		for i, sch := range schemes {
			s, err := r.speedup(wl, sch)
			if err != nil {
				return err
			}
			row[i] = s
			per[sch] = append(per[sch], s)
		}
		fmt.Fprintf(r.Out, "%-14s %10.3f %10.3f %12.3f %10.3f  %s\n",
			wl, row[0], row[1], row[2], row[3], bar(row[2]))
	}
	fmt.Fprintf(r.Out, "%-14s %10.3f %10.3f %12.3f %10.3f\n", "GEOMEAN",
		stats.GeoMean(per[schemes[0]]), stats.GeoMean(per[schemes[1]]),
		stats.GeoMean(per[schemes[2]]), stats.GeoMean(per[schemes[3]]))
	return nil
}

// Figure17 runs Dynamic-PTMC across the workload population and prints the
// sorted speedup curve. The paper's claim: no workload degrades; the curve
// is flat at 1.0 on the left and rises to ~1.7 on the right.
func (r *Runner) Figure17() error {
	r.header("Figure 17: Dynamic-PTMC speedup across workloads, sorted")
	if err := r.Prefetch(jobsFor(r.Opts.all(), sim.SchemeUncompressed, sim.SchemeDynamicPTMC)...); err != nil {
		return err
	}
	var vs []float64
	for _, wl := range r.Opts.all() {
		s, err := r.speedup(wl, sim.SchemeDynamicPTMC)
		if err != nil {
			return err
		}
		vs = append(vs, s)
	}
	sorted := sortedCopy(vs)
	for i, v := range sorted {
		fmt.Fprintf(r.Out, "%3d %7.3f  %s\n", i+1, v, bar(v))
	}
	fmt.Fprintf(r.Out, "min=%.3f geomean=%.3f max=%.3f\n",
		sorted[0], stats.GeoMean(sorted), sorted[len(sorted)-1])
	return nil
}

// Figure18 reports Dynamic-PTMC's power, energy and EDP normalized to the
// uncompressed baseline. The paper's claim: ~5% energy and ~10% EDP
// improvement from doing fewer DRAM requests in less time.
func (r *Runner) Figure18() error {
	r.header("Figure 18: Dynamic-PTMC speedup / power / energy / EDP (normalized)")
	fmt.Fprintf(r.Out, "%-14s %8s %8s %8s %8s\n", "workload", "speedup", "power", "energy", "EDP")
	var sp, pw, en, ed []float64
	wls := r.figure12Set()
	if err := r.Prefetch(jobsFor(wls, sim.SchemeUncompressed, sim.SchemeDynamicPTMC)...); err != nil {
		return err
	}
	for _, wl := range wls {
		base, err := r.Result(wl, sim.SchemeUncompressed, "", nil)
		if err != nil {
			return err
		}
		dyn, err := r.Result(wl, sim.SchemeDynamicPTMC, "", nil)
		if err != nil {
			return err
		}
		s := dyn.WeightedSpeedupOver(base)
		p := stats.Ratio(dyn.Energy.AvgWatts, base.Energy.AvgWatts)
		e := stats.Ratio(dyn.Energy.TotalJ, base.Energy.TotalJ)
		d := stats.Ratio(dyn.Energy.EDP, base.Energy.EDP)
		sp, pw, en, ed = append(sp, s), append(pw, p), append(en, e), append(ed, d)
		fmt.Fprintf(r.Out, "%-14s %8.3f %8.3f %8.3f %8.3f\n", wl, s, p, e, d)
	}
	fmt.Fprintf(r.Out, "%-14s %8.3f %8.3f %8.3f %8.3f\n", "GEOMEAN",
		stats.GeoMean(sp), stats.GeoMean(pw), stats.GeoMean(en), stats.GeoMean(ed))
	return nil
}

// LLPAblation sweeps the Last Compressibility Table size (DESIGN.md §7):
// accuracy and speedup vs entries.
func (r *Runner) LLPAblation(sizes []int) error {
	r.header("Ablation: LLP size sweep")
	fmt.Fprintf(r.Out, "%8s %10s %10s\n", "entries", "accuracy", "speedup")
	wl := r.Opts.spec()[0]
	jobs := []Job{{Workload: wl, Scheme: sim.SchemeUncompressed}}
	for _, n := range sizes {
		n := n
		jobs = append(jobs, Job{Workload: wl, Scheme: sim.SchemePTMC,
			Variant: fmt.Sprintf("llp%d", n),
			Mutate:  func(c *sim.Config) { c.LLPEntries = n }})
	}
	if err := r.Prefetch(jobs...); err != nil {
		return err
	}
	base, err := r.Result(wl, sim.SchemeUncompressed, "", nil)
	if err != nil {
		return err
	}
	for _, n := range sizes {
		n := n
		res, err := r.Result(wl, sim.SchemePTMC, fmt.Sprintf("llp%d", n),
			func(c *sim.Config) { c.LLPEntries = n })
		if err != nil {
			return err
		}
		fmt.Fprintf(r.Out, "%8d %9.1f%% %10.3f\n",
			n, 100*res.LLPAccuracy, res.WeightedSpeedupOver(base))
	}
	return nil
}

// MarkerWidthNote prints the collision math behind the 4-byte marker choice
// (§IV-C footnote): expected colliding lines resident in memory.
func (r *Runner) MarkerWidthNote(memGB int) {
	r.header("Marker width: expected resident collisions")
	lines := float64(uint64(memGB) << 30 / 64)
	for _, bytes := range []int{4, 5} {
		p := 1.0
		for i := 0; i < bytes; i++ {
			p /= 256
		}
		fmt.Fprintf(r.Out, "%dB marker: %.3g expected colliding lines in %d GB\n",
			bytes, lines*p, memGB)
	}
	_ = core.MarkerBytes
}

// RelatedWork compares the prior TMC implementations the paper discusses
// (§VII): MemZip-style variable-burst compression (non-commodity DIMMs,
// no co-location) and the table-based co-location design, against PTMC.
func (r *Runner) RelatedWork() error {
	r.header("Related work: MemZip vs Table-TMC vs Dynamic-PTMC")
	fmt.Fprintf(r.Out, "%-14s %8s %10s %12s\n", "workload", "memzip", "table-tmc", "dynamic-ptmc")
	wls := append(append([]string{}, r.Opts.spec()...), r.Opts.graph()...)
	if err := r.Prefetch(jobsFor(wls, sim.SchemeUncompressed, sim.SchemeMemZip,
		sim.SchemeTableTMC, sim.SchemeDynamicPTMC)...); err != nil {
		return err
	}
	var mz, tt, dp []float64
	for _, wl := range wls {
		a, err := r.speedup(wl, sim.SchemeMemZip)
		if err != nil {
			return err
		}
		b, err := r.speedup(wl, sim.SchemeTableTMC)
		if err != nil {
			return err
		}
		c, err := r.speedup(wl, sim.SchemeDynamicPTMC)
		if err != nil {
			return err
		}
		mz, tt, dp = append(mz, a), append(tt, b), append(dp, c)
		fmt.Fprintf(r.Out, "%-14s %8.3f %10.3f %12.3f\n", wl, a, b, c)
	}
	fmt.Fprintf(r.Out, "%-14s %8.3f %10.3f %12.3f\n", "GEOMEAN",
		stats.GeoMean(mz), stats.GeoMean(tt), stats.GeoMean(dp))
	return nil
}
