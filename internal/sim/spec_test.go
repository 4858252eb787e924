package sim

import (
	"flag"
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
