package sim

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"testing"
)

func TestSpecNormalizeConfigKey(t *testing.T) {
	s := Spec{Workload: "lbm06", Warmup: 100}
	s.Normalize()
	d := Default()
	if s.Cores != d.Cores || s.Warmup != 100 || s.Measure != d.MeasureInstr || s.Seed != d.Seed {
		t.Fatalf("normalized %+v: zero fields must take Default()'s values, set ones stay", s)
	}
	cfg := s.Config(SchemePTMC)
	if cfg.Workload != "lbm06" || cfg.Scheme != SchemePTMC || cfg.Cores != s.Cores ||
		cfg.WarmupInstr != 100 || cfg.MeasureInstr != s.Measure || cfg.Seed != s.Seed || cfg.Trace {
		t.Fatalf("Config = %+v, does not carry %+v", cfg, s)
	}
	if got, want := s.Key(SchemePTMC), "lbm06|ptmc|c8|w100|m500000|s1|sh0|evfalse|trfalse"; got != want {
		t.Fatalf("Key = %s, want %s", got, want)
	}
	if z := (Spec{}).Config(SchemePTMC); z.WarmupInstr != 0 || z.Seed != 0 {
		t.Fatal("Config must map fields as they are (no implicit Normalize)")
	}
}

func TestSpecBindFlagsKeepsReceiverDefaults(t *testing.T) {
	s := Spec{Cores: 4, Warmup: 200, Measure: 300, Seed: 9}
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	s.BindFlags(fs)
	for name, want := range map[string]string{"cores": "4", "warmup": "200", "insts": "300", "seed": "9"} {
		if f := fs.Lookup(name); f == nil || f.DefValue != want {
			t.Errorf("-%s default = %v, want %s", name, f, want)
		}
	}
	if err := fs.Parse([]string{"-cores", "2", "-insts", "50"}); err != nil {
		t.Fatal(err)
	}
	if s != (Spec{Cores: 2, Warmup: 200, Measure: 50, Seed: 9}) {
		t.Fatalf("parsed spec = %+v", s)
	}

	h := flag.NewFlagSet("h", flag.ContinueOnError)
	new(Spec).BindHorizon(h)
	if h.Lookup("seed") != nil || h.Lookup("cores") == nil {
		t.Error("BindHorizon must bind -cores/-warmup/-insts and no -seed")
	}
}

func TestValidateBoundsCores(t *testing.T) {
	cfg := Spec{Workload: "lbm06", Cores: MaxCores + 1, Measure: 1}.Config(SchemePTMC)
	if cfg.Validate() == nil {
		t.Fatalf("cores %d validated; the bound is %d", cfg.Cores, MaxCores)
	}
	cfg.Cores = MaxCores
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestValidateRejectsBeforeRun: every geometry New (or the LLP) would
// reject, and every design point above its bound, fails Validate, so a
// job is refused at submit instead of failing or panicking mid-run.
func TestValidateRejectsBeforeRun(t *testing.T) {
	for _, c := range []struct {
		name string
		p    Point
		ok   bool
	}{
		{"table I", Point{}, true},
		{"sweep extremes", Point{Channels: 4, L3MB: 16, LLPEntries: 4096, MCacheKB: 128, DecompCycles: 40}, true},
		{"at the bounds", Point{Channels: MaxChannels, L3MB: MaxL3Bytes >> 20, LLPEntries: MaxLLPEntries,
			MCacheKB: MaxMCacheBytes >> 10, DecompCycles: MaxDecompCycles}, true},
		{"llp not a power of two", Point{LLPEntries: 100}, false},
		{"llp negative", Point{LLPEntries: -512}, false},
		{"l3 sets not a power of two", Point{L3MB: 3}, false},
		{"l3 negative", Point{L3MB: -8}, false},
		{"mcache sets not a power of two", Point{MCacheKB: 3}, false},
		{"channels not a power of two", Point{Channels: 3}, false},
		{"channels above bound", Point{Channels: 2 * MaxChannels}, false},
		{"l3 above bound", Point{L3MB: 2 * MaxL3Bytes >> 20}, false},
		{"l3 shift overflows to 8 MB", Point{L3MB: 1<<44 + 8}, false},
		{"llp above bound", Point{LLPEntries: 2 * MaxLLPEntries}, false},
		{"mcache above bound", Point{MCacheKB: 2 * MaxMCacheBytes >> 10}, false},
		{"decomp above bound", Point{DecompCycles: MaxDecompCycles + 1}, false},
		{"decomp negative", Point{DecompCycles: -1}, false},
	} {
		cfg := Spec{Workload: "lbm06", Cores: 1, Measure: 1, Point: c.p}.Config(SchemePTMC)
		if err := cfg.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate = %v, want ok=%t", c.name, err, c.ok)
		}
	}
	// Table I's own LLP size, zeroed on the Config rather than the point,
	// panicked in sim.Run before Validate checked it.
	cfg := Default()
	cfg.Workload = "lbm06"
	cfg.LLPEntries = 0
	if cfg.Validate() == nil {
		t.Error("LLPEntries 0 validated")
	}
}

func TestPointNormalizeAndKey(t *testing.T) {
	d := Default()
	tableI := Point{Channels: d.DRAM.Channels, L3MB: d.L3Bytes >> 20, LLPEntries: d.LLPEntries,
		MCacheKB: d.MCacheBytes >> 10, DecompCycles: 5}
	s := Spec{Workload: "lbm06", Point: tableI}
	s.Normalize()
	if s.Point != (Point{}) {
		t.Fatalf("Table I point normalized to %+v, want zero", s.Point)
	}
	plain := Spec{Workload: "lbm06"}
	plain.Normalize()
	if s.Key(SchemePTMC) != plain.Key(SchemePTMC) {
		t.Fatalf("Table I point keys as %s, plain spec as %s", s.Key(SchemePTMC), plain.Key(SchemePTMC))
	}

	one := Spec{Workload: "lbm06", Point: Point{Channels: 1, L3MB: 8}}
	one.Normalize()
	if one.Point != (Point{Channels: 1}) {
		t.Fatalf("normalized point %+v, want only channels 1", one.Point)
	}
	if got, want := one.Key(SchemePTMC), plain.Key(SchemePTMC)+"|ch1|l3mb0|llp0|mckb0|dc0"; got != want {
		t.Fatalf("Key = %s, want %s", got, want)
	}
	cfg := Spec{Point: Point{Channels: 1, L3MB: 4, LLPEntries: 64, MCacheKB: 8, DecompCycles: 10}}.Config(SchemePTMC)
	if cfg.DRAM.Channels != 1 || cfg.L3Bytes != 4<<20 || cfg.LLPEntries != 64 ||
		cfg.MCacheBytes != 8<<10 || cfg.DecompCycles != 10 {
		t.Fatalf("Config does not carry the point: %+v", cfg)
	}
	if got := (Spec{Point: Point{L3MB: 4}}).Or(Spec{Point: Point{L3MB: 1, Channels: 1}}).Point; got != (Point{Channels: 1, L3MB: 4}) {
		t.Fatalf("Or point = %+v", got)
	}
}

// TestMatrixRunsOrderAndNormalize: a matrix expands workloads → points →
// schemes → seeds, each cell normalized over the base, so a point equal to
// Table I keys like the default run; an empty point or seed axis is the
// base's own, an empty workload axis has no runs.
func TestMatrixRunsOrderAndNormalize(t *testing.T) {
	base := Spec{Cores: 2, Warmup: 100, Measure: 200, Point: Point{L3MB: 1}}
	m := Matrix{Base: base, Workloads: []string{"lbm06", "mcf06"},
		Points: []Point{{}, {Channels: 1}}, Schemes: []string{SchemeUncompressed, SchemePTMC},
		Seeds: []int64{1, 2}}
	var got []string
	for _, r := range m.Runs() {
		got = append(got, fmt.Sprintf("%s/%d/%s/%d", r.Spec.Workload, r.Spec.Channels, r.Scheme, r.Spec.Seed))
		if r.Spec.L3MB != 1 {
			t.Errorf("%s lost the base's point", r.Key())
		}
	}
	var want []string
	for _, w := range m.Workloads {
		for _, ch := range []int{0, 1} {
			for _, sc := range m.Schemes {
				for _, sd := range m.Seeds {
					want = append(want, fmt.Sprintf("%s/%d/%s/%d", w, ch, sc, sd))
				}
			}
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("runs = %v\nwant %v", got, want)
	}

	one := Matrix{Base: Spec{Cores: 2}, Workloads: []string{"lbm06"},
		Points: []Point{{Channels: Default().DRAM.Channels}}, Schemes: []string{SchemePTMC}}.Runs()
	def := Spec{Workload: "lbm06", Cores: 2}
	def.Normalize()
	if len(one) != 1 || one[0].Key() != def.Key(SchemePTMC) {
		t.Errorf("a Table I point keys %v, want the default run %s", one, def.Key(SchemePTMC))
	}
	if n := len(Matrix{Base: def, Schemes: []string{SchemePTMC}}.Runs()); n != 0 {
		t.Errorf("a matrix with no workloads has %d runs, want 0", n)
	}
}

// TestRunSpecExecFailsIntegrityErrors: a result that reports integrity
// errors is an ErrIntegrity error, however the simulator returned it.
func TestRunSpecExecFailsIntegrityErrors(t *testing.T) {
	r := RunSpec{Spec: Spec{Workload: "lbm06"}, Scheme: SchemePTMC}
	bad := func(ctx context.Context, cfg Config) (*Result, error) {
		res := &Result{Workload: cfg.Workload, Scheme: cfg.Scheme}
		res.Mem.IntegrityErrs = 3
		return res, nil
	}
	if _, err := r.Exec(context.Background(), bad); !errors.Is(err, ErrIntegrity) || err.Error() != "3 integrity errors" {
		t.Errorf("Exec = %v, want 3 integrity errors", err)
	}
}
