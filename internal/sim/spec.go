package sim

import (
	"flag"
	"fmt"
)

// Spec is what a caller outside the simulator chooses about one run:
// the workload, the core count, the warmup and measured horizons, the
// seed, and whether to trace. Every other Config field keeps its Table I
// value unless a command sets it on the Config that Spec.Config returns.
// The JSON names are the job service's wire names (internal/server).
type Spec struct {
	Workload string `json:"workload"`
	Cores    int    `json:"cores,omitempty"`
	Warmup   int64  `json:"warmup_instr,omitempty"`
	Measure  int64  `json:"measure_instr,omitempty"`
	Seed     int64  `json:"seed,omitempty"`
	// Trace records controller events (Config.Trace). A traced run
	// yields a different artifact, so Trace is part of Key.
	Trace bool `json:"trace,omitempty"`
}

// Or returns s with every zero field taken from def.
func (s Spec) Or(def Spec) Spec {
	if s.Workload == "" {
		s.Workload = def.Workload
	}
	if s.Cores == 0 {
		s.Cores = def.Cores
	}
	if s.Warmup == 0 {
		s.Warmup = def.Warmup
	}
	if s.Measure == 0 {
		s.Measure = def.Measure
	}
	if s.Seed == 0 {
		s.Seed = def.Seed
	}
	s.Trace = s.Trace || def.Trace
	return s
}

// Normalize gives every zero field Default()'s value.
func (s *Spec) Normalize() {
	d := Default()
	*s = s.Or(Spec{Cores: d.Cores, Warmup: d.WarmupInstr, Measure: d.MeasureInstr, Seed: d.Seed})
}

// Config is the Table I machine (Default) running s under scheme. It maps
// the fields as they are; call Normalize first for zero-means-default.
func (s Spec) Config(scheme string) Config {
	cfg := Default()
	cfg.Workload = s.Workload
	cfg.Scheme = scheme
	cfg.Cores = s.Cores
	cfg.WarmupInstr = s.Warmup
	cfg.MeasureInstr = s.Measure
	cfg.Seed = s.Seed
	cfg.Trace = s.Trace
	return cfg
}

// Key is the canonical key of one scheme's run of s: two runs with equal
// keys produce the same result. The constant "sh0|evfalse" stands for the
// retired engine knobs (shards, event_driven) at their defaults, so keys
// and the job ids hashed from them stay as they were before the knobs
// were removed.
func (s Spec) Key(scheme string) string {
	return fmt.Sprintf("%s|%s|c%d|w%d|m%d|s%d|sh0|evfalse|tr%t",
		s.Workload, scheme, s.Cores, s.Warmup, s.Measure, s.Seed, s.Trace)
}

// BindFlags binds -cores, -warmup, -insts and -seed to s. Each flag's
// default is the field's current value, so a command sets its own
// defaults on s before binding.
func (s *Spec) BindFlags(fs *flag.FlagSet) {
	s.BindHorizon(fs)
	fs.Int64Var(&s.Seed, "seed", s.Seed, "deterministic run seed")
}

// BindHorizon binds -cores, -warmup and -insts only, for commands whose
// runs have no seed to choose (trace replay).
func (s *Spec) BindHorizon(fs *flag.FlagSet) {
	fs.IntVar(&s.Cores, "cores", s.Cores, "cores (rate mode: each core runs the workload)")
	fs.Int64Var(&s.Warmup, "warmup", s.Warmup, "warmup instructions per core")
	fs.Int64Var(&s.Measure, "insts", s.Measure, "measured instructions per core")
}
