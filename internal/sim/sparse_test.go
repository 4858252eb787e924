package sim

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"ptmc/internal/cache"
	"ptmc/internal/mem"
	"ptmc/internal/vm"
	"ptmc/internal/workload"
)

// TestImageStaysSparse guards the line-granular laziness of both stores:
// a run's image must store at most maxPct% of the lines in the pages it
// touched, and its architectural store none. mix1 runs at the benchmark's
// horizon (perfbench's mix1-dynamic: 300 k warmup + 100 k measured
// instructions per core), under Dynamic-PTMC and under MemZip, whose burst
// lengths come from the image and need no line stored at first touch.
// Trace replay takes the same lazy path. An image line is stored only when
// a controller writes it (reads go through ReadNoAlloc), so each bound
// sits just above the share the run writes back: 1.98%, 1.56% and 0.25%.
// A store only advances its line's version (commitStore), which the
// architectural store's fill synthesizes at. The counts are deterministic;
// a read that stores what it reads, a store that writes the architectural
// store, page-granular materialization or eager page init each break them.
func TestImageStaysSparse(t *testing.T) {
	mix1 := func(scheme string) Config {
		cfg := Default()
		cfg.Workload = "mix1"
		cfg.Scheme = scheme
		cfg.WarmupInstr, cfg.MeasureInstr = 300_000, 100_000
		return cfg
	}
	for _, tc := range []struct {
		name   string
		cfg    Config
		maxPct float64
	}{
		{"mix1/dynamic-ptmc", mix1(SchemeDynamicPTMC), 2.0},
		{"mix1/memzip", mix1(SchemeMemZip), 1.6},
		{"trace-replay", traceReplayCfg(t, SchemeDynamicPTMC), 0.3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Run(); err != nil {
				t.Fatal(err)
			}
			lines := s.img.FootprintBytes() / mem.LineSize
			img, arch := s.img.MaterializedLines(), s.arch.MaterializedLines()
			t.Logf("image stores %d of %d lines (%.1f%%); architectural store %d",
				img, lines, 100*float64(img)/float64(lines), arch)
			if lines == 0 || float64(img)*100 > float64(lines)*tc.maxPct {
				t.Errorf("image stores %d of %d lines in touched pages, want at most %.1f%%", img, lines, tc.maxPct)
			}
			if arch != 0 {
				t.Errorf("architectural store stores %d lines, want 0", arch)
			}
		})
	}
}

// TestArchTracksStores: the production path keeps no architectural line
// and synthesizes each at its stream's version, while the reference path
// writes every line at first touch and every store's new value. After a
// short mix1 at one seed both must hold the same value in every line of
// every touched page, and some of those lines must have been stored to
// (they differ from their first-touch value), or the comparison shows
// nothing. A reference that drops a store's write, or a production store
// that does not advance its line's version, fails it.
func TestArchTracksStores(t *testing.T) {
	cfg := Default()
	cfg.Workload = "mix1"
	cfg.Scheme = SchemeDynamicPTMC
	cfg.WarmupInstr, cfg.MeasureInstr = 20_000, 20_000
	var sims [2]*Simulator
	for i, reference := range []bool{false, true} {
		s, err := newSimulator(cfg, reference)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			t.Fatalf("reference=%t: %v", reference, err)
		}
		sims[i] = s
	}
	prod, ref := sims[0], sims[1]
	lines := ref.arch.TouchedLines()
	if got := prod.arch.TouchedLines(); !reflect.DeepEqual(got, lines) {
		t.Fatalf("production touched %d lines, reference %d", len(got), len(lines))
	}
	var pbuf, rbuf, init [mem.LineSize]byte
	stored := 0
	for _, a := range lines {
		want := ref.arch.ReadNoAlloc(a, rbuf[:])
		if got := prod.arch.ReadNoAlloc(a, pbuf[:]); !bytes.Equal(got, want) {
			t.Fatalf("line %d: production architectural value %x, reference %x", a, got, want)
		}
		if prod.imageLine(a, init[:]); !bytes.Equal(init[:], want) {
			stored++
		}
	}
	t.Logf("%d lines in touched pages, %d of them stored to", len(lines), stored)
	if stored == 0 {
		t.Fatal("no line differs from its first-touch value: the run stored nothing")
	}
}

// eagerSource hides its stream's FillLineInit.
type eagerSource struct{ workload.Source }

// TestNewRejectsEagerSource: every page initializes lazily from its
// stream's FillLineInit, so sim.New refuses a caller-provided source that
// lacks it and names the core.
func TestNewRejectsEagerSource(t *testing.T) {
	w, err := workload.Lookup("lbm06")
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickCfg("lbm06", SchemePTMC)
	cfg.Sources = func(core int, seed int64) (workload.Source, error) {
		if core == 1 {
			return eagerSource{w.NewStream(seed)}, nil
		}
		return w.NewStream(seed), nil
	}
	_, err = New(cfg)
	if err == nil || !strings.Contains(err.Error(), "core 1") || !strings.Contains(err.Error(), "FillLineInit") {
		t.Fatalf("New with a source lacking FillLineInit on core 1: err = %v, want an error naming core 1", err)
	}
}

// TestUnreadPointFieldsShareRuns: a point field a scheme never reads is
// dropped from its run key (Point.For), which is sound only if the run's
// result does not depend on it. Each scheme runs at Table I and with each
// field its key drops moved off Table I, on a 64 KB LLC so compressed
// fills happen within the horizon; the results must be identical. Ideal-
// TMC keeps the decompression latency: its compressed fills pay it.
func TestUnreadPointFieldsShareRuns(t *testing.T) {
	spec := Spec{Workload: "libquantum06", Cores: 2, Warmup: 20_000, Measure: 60_000, Seed: 1}
	run := func(scheme string, p Point) *Result {
		s := spec
		s.Point = p
		cfg := s.Config(scheme)
		cfg.L3Bytes = 64 << 10
		r, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	for _, scheme := range Schemes() {
		base := run(scheme, Point{})
		for _, p := range []Point{{LLPEntries: 64}, {MCacheKB: 8}, {DecompCycles: 40}} {
			if p.For(scheme) != (Point{}) {
				continue // the key keeps it
			}
			if k, k0 := (Spec{Workload: "w", Point: p}).Key(scheme), (Spec{Workload: "w"}).Key(scheme); k != k0 {
				t.Fatalf("%s %+v: key %s, want the Table I key %s", scheme, p, k, k0)
			}
			if r := run(scheme, p); !reflect.DeepEqual(base, r) {
				t.Errorf("%s: %+v changes the result although the key drops it:\n%s\n%s", scheme, p, base, r)
			}
		}
	}
	if reflect.DeepEqual(run(SchemeIdeal, Point{}), run(SchemeIdeal, Point{DecompCycles: 40})) {
		t.Error("ideal-tmc's result ignores decomp_cycles; its key need not keep it")
	}
}

// TestPrivateCachesHoldOwnLines: inclusion holds — the L3 holds every
// valid L1 and L2 line, which backInvalidate keeps true for L3 victims and
// ganged group drops — and, since vm gives each physical page to one core
// and only a core's own accesses fill its private caches, every such line
// of core c lies in a page c owns. mix1 runs under Dynamic-PTMC, whose L3
// victims and ganged group drops both back-invalidate, and under MemZip.
func TestPrivateCachesHoldOwnLines(t *testing.T) {
	for _, scheme := range []string{SchemeDynamicPTMC, SchemeMemZip} {
		t.Run(scheme, func(t *testing.T) {
			cfg := Default()
			cfg.Workload = "mix1"
			cfg.Scheme = scheme
			cfg.WarmupInstr, cfg.MeasureInstr = 100_000, 50_000
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Run(); err != nil {
				t.Fatal(err)
			}
			held := 0
			for c := range s.cores {
				for _, private := range []*cache.Cache{s.l1[c], s.l2[c]} {
					private.ForEachValid(func(e *cache.Entry) {
						held++
						i := s.vmsys.PageIndex(uint64(e.Tag) / vm.PageLines)
						if i >= uint64(len(s.origins)) || s.origins[i].core() != c {
							t.Fatalf("core %d's private cache holds line %d of a page it does not own", c, e.Tag)
						}
						if _, ok := s.l3.Probe(e.Tag); !ok {
							t.Fatalf("core %d's private cache holds line %d, which the L3 does not", c, e.Tag)
						}
					})
				}
			}
			if held == 0 {
				t.Fatal("no private cache holds a line")
			}
		})
	}
}
