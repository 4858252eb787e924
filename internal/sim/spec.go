package sim

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"

	"ptmc/internal/memctrl"
)

// Spec is what a caller outside the simulator chooses about one run:
// the workload, the core count, the warmup and measured horizons, the
// seed, whether to trace, and the design point. Every other Config field
// keeps its Table I value unless a command sets it on the Config that
// Spec.Config returns. The JSON names are the job service's wire names
// (internal/server); the point's fields sit beside the run fields.
type Spec struct {
	Workload string `json:"workload"`
	Cores    int    `json:"cores,omitempty"`
	Warmup   int64  `json:"warmup_instr,omitempty"`
	Measure  int64  `json:"measure_instr,omitempty"`
	Seed     int64  `json:"seed,omitempty"`
	// Trace records controller events (Config.Trace). A traced run
	// yields a different artifact, so Trace is part of Key.
	Trace bool `json:"trace,omitempty"`
	Point
}

// Point is a design point: the Table I parameters the paper's sensitivity
// studies vary (Table IV's channel count, the LLC, LLP and metadata-cache
// sizes, the decompression latency). A zero field means the Table I value,
// and Spec.Normalize maps a field set to its Table I value to zero, so a
// point equal to Table I is the zero Point and keys like one.
type Point struct {
	Channels     int   `json:"channels,omitempty"`
	L3MB         int   `json:"l3_mb,omitempty"`
	LLPEntries   int   `json:"llp_entries,omitempty"`
	MCacheKB     int   `json:"mcache_kb,omitempty"`
	DecompCycles int64 `json:"decomp_cycles,omitempty"`
}

// Key is the point's suffix of a run key: empty for Table I, so keys and
// job ids minted before points existed keep their values.
func (p Point) Key() string {
	if p == (Point{}) {
		return ""
	}
	return fmt.Sprintf("|ch%d|l3mb%d|llp%d|mckb%d|dc%d",
		p.Channels, p.L3MB, p.LLPEntries, p.MCacheKB, p.DecompCycles)
}

// For returns p without the fields scheme never reads, so runs that
// differ only in them share a key: the metadata-cache size matters only to
// table-tmc and memzip, the LLP size only to ptmc and dynamic-ptmc (sim.New
// sizes no other scheme's predictor), and the decompression latency to
// every scheme but uncompressed and nextline, which never fill a
// compressed line.
func (p Point) For(scheme string) Point {
	if scheme != SchemeTableTMC && scheme != SchemeMemZip {
		p.MCacheKB = 0
	}
	if scheme != SchemePTMC && scheme != SchemeDynamicPTMC {
		p.LLPEntries = 0
	}
	if scheme == SchemeUncompressed || scheme == SchemeNextLine {
		p.DecompCycles = 0
	}
	return p
}

// Or returns s with every zero field, point fields included, taken from
// def.
func (s Spec) Or(def Spec) Spec {
	s.Workload = or(s.Workload, def.Workload)
	s.Cores = or(s.Cores, def.Cores)
	s.Warmup = or(s.Warmup, def.Warmup)
	s.Measure = or(s.Measure, def.Measure)
	s.Seed = or(s.Seed, def.Seed)
	s.Trace = or(s.Trace, def.Trace)
	s.Channels = or(s.Channels, def.Channels)
	s.L3MB = or(s.L3MB, def.L3MB)
	s.LLPEntries = or(s.LLPEntries, def.LLPEntries)
	s.MCacheKB = or(s.MCacheKB, def.MCacheKB)
	s.DecompCycles = or(s.DecompCycles, def.DecompCycles)
	return s
}

// or is v, or def when v is the zero value.
func or[T comparable](v, def T) T {
	var zero T
	if v == zero {
		return def
	}
	return v
}

// Normalize gives every zero run field Default()'s value and zeroes every
// point field that equals its Table I value.
func (s *Spec) Normalize() {
	d := Default()
	*s = s.Or(Spec{Cores: d.Cores, Warmup: d.WarmupInstr, Measure: d.MeasureInstr, Seed: d.Seed})
	p := &s.Point
	if p.Channels == d.DRAM.Channels {
		p.Channels = 0
	}
	if p.L3MB == d.L3Bytes>>20 {
		p.L3MB = 0
	}
	if p.LLPEntries == d.LLPEntries {
		p.LLPEntries = 0
	}
	if p.MCacheKB == d.MCacheBytes>>10 {
		p.MCacheKB = 0
	}
	if p.DecompCycles == memctrl.DecompressCycles {
		p.DecompCycles = 0
	}
}

// Config is the Table I machine (Default) running s under scheme, with
// s's non-zero point fields applied. It maps the fields as they are; call
// Normalize first for zero-means-default, and Validate to bound the point.
func (s Spec) Config(scheme string) Config {
	cfg := Default()
	cfg.Workload = s.Workload
	cfg.Scheme = scheme
	cfg.Cores = s.Cores
	cfg.WarmupInstr = s.Warmup
	cfg.MeasureInstr = s.Measure
	cfg.Seed = s.Seed
	cfg.Trace = s.Trace
	cfg.DRAM.Channels = or(s.Channels, cfg.DRAM.Channels)
	cfg.L3Bytes = or(scaled(s.L3MB, 20), cfg.L3Bytes)
	cfg.LLPEntries = or(s.LLPEntries, cfg.LLPEntries)
	cfg.MCacheBytes = or(scaled(s.MCacheKB, 10), cfg.MCacheBytes)
	cfg.DecompCycles = or(s.DecompCycles, cfg.DecompCycles)
	return cfg
}

// scaled is n<<shift, or -1 (which Validate rejects) when that overflows:
// a point from an untrusted job must not wrap around to a valid size.
func scaled(n, shift int) int {
	if n > math.MaxInt>>shift || n < math.MinInt>>shift {
		return -1
	}
	return n << shift
}

// Key is the canonical key of one scheme's run of s: two runs with equal
// keys produce the same result. The constant "sh0|evfalse" stands for the
// retired engine knobs (shards, event_driven) at their defaults, so keys
// and the job ids hashed from them stay as they were before the knobs
// were removed; the point's suffix is empty for Table I for the same
// reason. The suffix keys only the point fields scheme reads (Point.For).
func (s Spec) Key(scheme string) string {
	return fmt.Sprintf("%s|%s|c%d|w%d|m%d|s%d|sh0|evfalse|tr%t",
		s.Workload, scheme, s.Cores, s.Warmup, s.Measure, s.Seed, s.Trace) + s.Point.For(scheme).Key()
}

// Matrix is a set of runs: Base under every workload, design point,
// scheme and seed on its axes. An empty workload or scheme axis has no
// runs (Base's workload is unused); an empty point or seed axis is Base's.
// paperbench, sweep and ptmcd all expand their runs here.
type Matrix struct {
	Base      Spec
	Workloads []string
	Points    []Point
	Schemes   []string
	Seeds     []int64
}

// RunSpec is one cell of a Matrix: a normalized spec under one scheme.
type RunSpec struct {
	Spec   Spec
	Scheme string
}

// Key is the cell's run key.
func (r RunSpec) Key() string { return r.Spec.Key(r.Scheme) }

// Runs expands m in workloads → points → schemes → seeds order. A cell is
// its axis values over Base, normalized, so a Table I point keys like the
// default run.
func (m Matrix) Runs() []RunSpec {
	var runs []RunSpec
	for _, w := range m.Workloads {
		for _, p := range axis(m.Points) {
			for _, sc := range m.Schemes {
				for _, sd := range axis(m.Seeds) {
					s := Spec{Workload: w, Seed: sd, Point: p}.Or(m.Base)
					s.Normalize()
					runs = append(runs, RunSpec{Spec: s, Scheme: sc})
				}
			}
		}
	}
	return runs
}

// axis is xs, or one zero value (Base's, through Or) when xs is empty.
func axis[T any](xs []T) []T {
	if len(xs) == 0 {
		return make([]T, 1)
	}
	return xs
}

// ErrIntegrity marks a run whose cores read back data they did not write.
var ErrIntegrity = errors.New("integrity errors")

// Exec simulates r with simulate (RunContext when nil). A result with
// integrity errors has no speedup to report, so Exec returns it as an
// ErrIntegrity error; RunContext itself returns it as data.
func (r RunSpec) Exec(ctx context.Context, simulate func(context.Context, Config) (*Result, error)) (*Result, error) {
	if simulate == nil {
		simulate = RunContext
	}
	res, err := simulate(ctx, r.Spec.Config(r.Scheme))
	if err != nil {
		return nil, err
	}
	if n := res.Mem.IntegrityErrs; n > 0 {
		return nil, fmt.Errorf("%d %w", n, ErrIntegrity)
	}
	return res, nil
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
