package ptmc

// One benchmark per table and figure of the paper (DESIGN.md §3 maps each
// to its experiment). Benchmarks run the experiment at a reduced,
// laptop-scale horizon and report the headline quantity of each artifact
// via b.ReportMetric; `cmd/paperbench` runs the same experiments at full
// scale with complete per-workload rows.
//
//	go test -bench=. -benchmem
//
// All benchmarks share one result cache, so the suite pays for each
// (workload, scheme) simulation once.

import (
	"fmt"
	"io"
	"sync"
	"testing"

	"ptmc/internal/paper"
	"ptmc/internal/sim"
	"ptmc/internal/stats"
)

// benchOptions is the reduced horizon used by the benchmark suite.
func benchOptions() paper.Options {
	return paper.Options{
		Run: sim.Spec{Cores: 4, Warmup: 400_000, Measure: 150_000, Seed: 1,
			Point: sim.Point{L3MB: 4}},
		Spec:   []string{"libquantum06", "lbm06", "mcf06"},
		Graph:  []string{"pr-twitter", "bfs-web"},
		Mixes:  []string{},
		All:    []string{"libquantum06", "lbm06", "mcf06", "pr-twitter", "leela17"},
		Silent: true,
	}
}

var (
	benchRunnerOnce sync.Once
	benchRunner     *paper.Runner
)

// runner returns the shared, result-caching experiment runner.
func runner() *paper.Runner {
	benchRunnerOnce.Do(func() {
		benchRunner = paper.NewRunner(benchOptions(), io.Discard)
	})
	return benchRunner
}

// speedup fetches the cached weighted speedup of scheme over baseline.
func speedup(b *testing.B, wl, scheme string) float64 {
	b.Helper()
	base, err := runner().Result(paper.Job{Workload: wl, Scheme: sim.SchemeUncompressed})
	if err != nil {
		b.Fatal(err)
	}
	res, err := runner().Result(paper.Job{Workload: wl, Scheme: scheme})
	if err != nil {
		b.Fatal(err)
	}
	return res.WeightedSpeedupOver(base)
}

func BenchmarkTableI_Config(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := paper.NewRunner(benchOptions(), io.Discard)
		r.TableI()
	}
}

func BenchmarkTableII_WorkloadCharacteristics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := runner().Result(paper.Job{Workload: "mcf06", Scheme: sim.SchemeUncompressed})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MPKI, "mcf-mpki")
	}
}

func BenchmarkFigure4_MetadataBandwidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base, err := runner().Result(paper.Job{Workload: "pr-twitter", Scheme: sim.SchemeUncompressed})
		if err != nil {
			b.Fatal(err)
		}
		tt, err := runner().Result(paper.Job{Workload: "pr-twitter", Scheme: sim.SchemeTableTMC})
		if err != nil {
			b.Fatal(err)
		}
		meta := float64(tt.Mem.MetadataReads+tt.Mem.MetadataWrites) / float64(base.Mem.Total())
		b.ReportMetric(meta, "graph-metadata-bw")
	}
}

func BenchmarkFigure5_IdealVsTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.ReportMetric(speedup(b, "libquantum06", sim.SchemeIdeal), "ideal-speedup")
		b.ReportMetric(speedup(b, "pr-twitter", sim.SchemeTableTMC), "table-graph-speedup")
	}
}

func BenchmarkFigure6_PairCompressibility(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := paper.NewRunner(benchOptions(), io.Discard)
		if err := r.Figure6(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure9_LLPAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pt, err := runner().Result(paper.Job{Workload: "lbm06", Scheme: sim.SchemePTMC})
		if err != nil {
			b.Fatal(err)
		}
		tt, err := runner().Result(paper.Job{Workload: "lbm06", Scheme: sim.SchemeTableTMC})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*pt.LLPAccuracy, "llp-pct")
		b.ReportMetric(100*tt.MCacheHitRate, "mcache-pct")
	}
}

func BenchmarkFigure12_PTMCvsTMC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.ReportMetric(speedup(b, "lbm06", sim.SchemePTMC), "ptmc-spec")
		b.ReportMetric(speedup(b, "lbm06", sim.SchemeTableTMC), "tmc-spec")
	}
}

func BenchmarkFigure14_PTMCBandwidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base, err := runner().Result(paper.Job{Workload: "pr-twitter", Scheme: sim.SchemeUncompressed})
		if err != nil {
			b.Fatal(err)
		}
		pt, err := runner().Result(paper.Job{Workload: "pr-twitter", Scheme: sim.SchemePTMC})
		if err != nil {
			b.Fatal(err)
		}
		maint := float64(pt.Mem.CleanCompIntoW+pt.Mem.Invalidates) / float64(base.Mem.Total())
		b.ReportMetric(maint, "graph-maint-bw")
	}
}

func BenchmarkFigure15_Dynamic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var specs, graphs []float64
		for _, wl := range benchOptions().Spec {
			specs = append(specs, speedup(b, wl, sim.SchemeDynamicPTMC))
		}
		for _, wl := range benchOptions().Graph {
			graphs = append(graphs, speedup(b, wl, sim.SchemeDynamicPTMC))
		}
		b.ReportMetric(stats.GeoMean(specs), "dyn-spec-speedup")
		b.ReportMetric(stats.GeoMean(graphs), "dyn-graph-speedup")
	}
}

func BenchmarkTableIII_StorageOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := paper.NewRunner(benchOptions(), io.Discard)
		r.TableIII()
	}
}

func BenchmarkFigure17_AllWorkloads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var worst, best = 10.0, 0.0
		for _, wl := range benchOptions().All {
			s := speedup(b, wl, sim.SchemeDynamicPTMC)
			if s < worst {
				worst = s
			}
			if s > best {
				best = s
			}
		}
		b.ReportMetric(worst, "worst-speedup")
		b.ReportMetric(best, "best-speedup")
	}
}

func BenchmarkFigure18_Energy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base, err := runner().Result(paper.Job{Workload: "lbm06", Scheme: sim.SchemeUncompressed})
		if err != nil {
			b.Fatal(err)
		}
		dyn, err := runner().Result(paper.Job{Workload: "lbm06", Scheme: sim.SchemeDynamicPTMC})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(dyn.Energy.TotalJ/base.Energy.TotalJ, "energy-ratio")
		b.ReportMetric(dyn.Energy.EDP/base.Energy.EDP, "edp-ratio")
	}
}

func BenchmarkTableIV_Channels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, ch := range []int{1, 2, 4} {
			p := sim.Point{Channels: ch}
			base, err := runner().Result(paper.Job{Workload: "lbm06", Scheme: sim.SchemeUncompressed, Point: p})
			if err != nil {
				b.Fatal(err)
			}
			dyn, err := runner().Result(paper.Job{Workload: "lbm06", Scheme: sim.SchemeDynamicPTMC, Point: p})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(dyn.WeightedSpeedupOver(base), fmt.Sprintf("speedup-ch%d", ch))
		}
	}
}

func BenchmarkTableV_L3HitRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base, err := runner().Result(paper.Job{Workload: "libquantum06", Scheme: sim.SchemeUncompressed})
		if err != nil {
			b.Fatal(err)
		}
		dyn, err := runner().Result(paper.Job{Workload: "libquantum06", Scheme: sim.SchemeDynamicPTMC})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*base.L3.HitRate(), "l3hit-base-pct")
		b.ReportMetric(100*dyn.L3.HitRate(), "l3hit-dyn-pct")
	}
}

func BenchmarkTableVI_Prefetch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.ReportMetric(speedup(b, "pr-twitter", sim.SchemeNextLine), "nextline-graph")
		b.ReportMetric(speedup(b, "pr-twitter", sim.SchemeDynamicPTMC), "dyn-graph")
	}
}

// ---- substrate micro-benchmarks ----

func BenchmarkHybridCompress(b *testing.B) {
	line := make([]byte, 64)
	for i := 0; i < 16; i++ {
		line[i*4] = byte(i)
	}
	alg := NewHybridCompressor()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alg.Compress(line)
	}
}

func BenchmarkHybridDecompress(b *testing.B) {
	line := make([]byte, 64)
	for i := 0; i < 16; i++ {
		line[i*4] = byte(i)
	}
	alg := NewHybridCompressor()
	enc := alg.Compress(line)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := alg.Decompress(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// benchLine returns a compressible 64-byte line (FPC-friendly words).
func benchLine() []byte {
	line := make([]byte, 64)
	for i := 0; i < 16; i++ {
		line[i*4] = byte(i)
	}
	return line
}

// BenchmarkAppendCompress measures the zero-allocation writeback hot path
// (run with -benchmem: allocs/op must be 0).
func BenchmarkAppendCompress(b *testing.B) {
	line := benchLine()
	for _, alg := range []Compressor{NewFPCCompressor(), NewBDICompressor(), NewHybridCompressor()} {
		alg := alg
		b.Run(alg.Name(), func(b *testing.B) {
			buf := alg.AppendCompress(nil, line)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = alg.AppendCompress(buf[:0], line)
			}
		})
	}
}

// BenchmarkDecompressInto measures the zero-allocation fill hot path.
func BenchmarkDecompressInto(b *testing.B) {
	line := benchLine()
	for _, alg := range []Compressor{NewFPCCompressor(), NewBDICompressor(), NewHybridCompressor()} {
		alg := alg
		b.Run(alg.Name(), func(b *testing.B) {
			enc := alg.AppendCompress(nil, line)
			out := make([]byte, 64)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := alg.DecompressInto(out, enc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure4Parallel measures end-to-end artifact wall-clock at 1 vs
// 4 workers (a fresh runner per iteration, so nothing is cached between
// iterations). The /4 case should run ≥2x faster than /1 on a 4-core
// machine; the rendered bytes are identical either way.
func BenchmarkFigure4Parallel(b *testing.B) {
	opts := benchOptions()
	opts.Run.Warmup = 60_000
	opts.Run.Measure = 30_000
	opts.Run.Cores = 2
	opts.Run.L3MB = 1
	for _, workers := range []int{1, 4} {
		workers := workers
		b.Run(string(rune('0'+workers)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := paper.NewParallelRunner(opts, io.Discard, workers)
				if err := r.Figure4(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSimulatorThroughput(b *testing.B) {
	// Instructions simulated per wall-second, the simulator's own speed.
	cfg := DefaultConfig()
	cfg.Workload = "leela17"
	cfg.Scheme = SchemeDynamicPTMC
	cfg.Cores = 2
	cfg.L3Bytes = 1 << 20
	cfg.WarmupInstr = 10_000
	cfg.MeasureInstr = 100_000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cfg.MeasureInstr*int64(cfg.Cores)*int64(b.N))/b.Elapsed().Seconds(), "instr/s")
}
