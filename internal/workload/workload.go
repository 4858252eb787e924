// Package workload provides the synthetic workload generators that stand in
// for the paper's SPEC2006/SPEC2017 PinPoints slices and GAP graph-analytics
// runs (see DESIGN.md §5 for the substitution argument). A Workload is a
// small set of first-order knobs — footprint, memory-instruction fraction,
// write fraction, spatial-run statistics, hot-set reuse, and a value-kind
// mix — from which MPKI, compressibility, and prefetch usefulness all
// *emerge* in simulation rather than being asserted.
package workload

import (
	"fmt"
	"math/rand"

	"ptmc/internal/mem"
	"ptmc/internal/vm"
)

// Op is one instruction-stream event: Gap non-memory instructions followed
// by one memory access.
type Op struct {
	Gap   int    // non-memory instructions preceding the access
	VAddr uint64 // virtual byte address
	Write bool
}

// Source feeds a simulated core: an instruction/access stream plus the
// data-value synthesis callbacks the memory system needs. Stream (the
// synthetic generators) and trace replayers (internal/trace) implement it.
type Source interface {
	// Next produces the next instruction-stream event.
	Next() Op
	// FillLine synthesizes the current contents of virtual line vline:
	// its value after every MutateLine of it so far.
	FillLine(vline uint64, buf []byte)
	// MutateLine advances the line's value on a store and writes the new
	// contents into buf; a nil buf only advances it.
	MutateLine(vline uint64, buf []byte)
}

// Workload is an immutable description of one benchmark's behavior.
type Workload struct {
	Name  string
	Suite string // "spec06", "spec17", "gap", "mix"

	FootprintBytes uint64  // virtual region size
	MemFrac        float64 // fraction of instructions that touch memory
	WriteFrac      float64 // fraction of memory ops that are stores
	SeqProb        float64 // probability a new burst is sequential
	SeqRun         int     // mean lines per sequential run
	HotFrac        float64 // fraction of footprint forming the hot set
	HotProb        float64 // probability a random access hits the hot set
	// SweepBytes is the size of the region sequential bursts iterate over
	// before the region drifts onward (0 = the whole footprint). Streaming
	// scientific codes sweep the same arrays repeatedly; this is what lets
	// a later access find data a previous eviction compressed.
	SweepBytes uint64
	Mix        ValueMix
}

// Validate reports parameter errors.
func (w *Workload) Validate() error {
	switch {
	case w.FootprintBytes < 1<<vm.PageShift:
		return fmt.Errorf("workload %s: footprint below one page", w.Name)
	case w.MemFrac <= 0 || w.MemFrac > 1:
		return fmt.Errorf("workload %s: MemFrac out of (0,1]", w.Name)
	case w.WriteFrac < 0 || w.WriteFrac > 1:
		return fmt.Errorf("workload %s: WriteFrac out of [0,1]", w.Name)
	case w.SeqProb < 0 || w.SeqProb > 1:
		return fmt.Errorf("workload %s: SeqProb out of [0,1]", w.Name)
	case w.SeqRun < 1:
		return fmt.Errorf("workload %s: SeqRun must be >= 1", w.Name)
	case w.HotFrac < 0 || w.HotFrac > 1 || w.HotProb < 0 || w.HotProb > 1:
		return fmt.Errorf("workload %s: hot-set parameters out of range", w.Name)
	case len(w.Mix) == 0:
		return fmt.Errorf("workload %s: empty value mix", w.Name)
	}
	return nil
}

// Stream is a per-core running instance of a Workload. Streams are
// deterministic in (workload, seed).
type Stream struct {
	w        *Workload
	rng      *rand.Rand
	seed     uint64
	versions versionTable // vline -> mutation count
	// held marks last as the line most recently mutated, with lastVer
	// its count, which versions does not hold until another line is
	// mutated: about half of all stores repeat the previous store's line
	// (dwell), and those skip the table.
	held    bool
	last    uint64
	lastVer uint32

	lines      uint64 // footprint in lines
	hotLines   uint64
	sweepLines uint64 // sequential-burst region size
	sweepBase  uint64 // current region origin (drifts forward)
	seqCur     uint64 // sequential cursor within the sweep region

	cur       uint64 // next line of the active sequential run
	runLeft   int
	stride    uint64
	dwellLeft int     // further accesses to the current line (intra-line reuse)
	qSeq      float64 // per-burst probability achieving SeqProb per access
}

// dwellMean is the average number of accesses a workload makes to a line
// while it is current (a 64-byte line holds 8-16 program values).
const dwellMean = 4

// NewStream instantiates the workload with a seed. Each core gets its own
// stream (rate mode: same workload, different seed).
func (w *Workload) NewStream(seed int64) *Stream {
	if err := w.Validate(); err != nil {
		panic(err)
	}
	s := &Stream{
		w:     w,
		rng:   rand.New(rand.NewSource(seed)),
		seed:  mix64(uint64(seed) ^ 0xC0FFEE),
		lines: w.FootprintBytes / 64,
	}
	s.hotLines = uint64(float64(s.lines) * w.HotFrac)
	if s.hotLines < 64 {
		s.hotLines = 64
	}
	if s.hotLines > s.lines {
		s.hotLines = s.lines
	}
	// SeqProb is the fraction of *accesses* that belong to sequential
	// runs. A run of mean length R delivers R accesses per burst, so the
	// per-burst probability must be deflated accordingly:
	// q = f / (f + R(1-f)).
	f, r := w.SeqProb, float64(w.SeqRun)
	if f > 0 {
		s.qSeq = f / (f + r*(1-f))
	}
	s.sweepLines = s.lines
	if w.SweepBytes > 0 && w.SweepBytes/64 < s.lines {
		s.sweepLines = w.SweepBytes / 64
	}
	return s
}

// Workload returns the stream's description.
func (s *Stream) Workload() *Workload { return s.w }

// Next produces the next instruction-stream event.
func (s *Stream) Next() Op {
	// Geometric gap with mean (1-MemFrac)/MemFrac non-memory instructions
	// per memory instruction.
	gap := 0
	for s.rng.Float64() > s.w.MemFrac {
		gap++
		if gap >= 1000 {
			break
		}
	}

	if s.dwellLeft > 0 {
		s.dwellLeft--
	} else {
		if s.runLeft == 0 {
			s.newBurst()
		} else {
			s.cur += s.stride
		}
		s.runLeft--
		// Geometric dwell with mean dwellMean accesses per line.
		for s.rng.Float64() > 1.0/dwellMean && s.dwellLeft < 4*dwellMean {
			s.dwellLeft++
		}
	}
	line := s.cur % s.lines

	return Op{
		Gap:   gap,
		VAddr: line*64 + uint64(s.rng.Intn(8))*8,
		Write: s.rng.Float64() < s.w.WriteFrac,
	}
}

// newBurst picks the next access burst: a sequential run with probability
// SeqProb, otherwise a short dwell at a random line — drawn from the hot
// set with probability HotProb (temporal reuse), else uniformly (cold).
func (s *Stream) newBurst() {
	if s.rng.Float64() < s.qSeq {
		// Geometric run length with mean SeqRun.
		n := 1
		for s.rng.Float64() > 1.0/float64(s.w.SeqRun) && n < 16*s.w.SeqRun {
			n++
		}
		s.runLeft = n
		s.stride = 1
		// Sequential bursts iterate the sweep region cyclically (the
		// array-sweep behavior of streaming codes): the cursor continues
		// where the last burst stopped and wraps within the region; each
		// wrap drifts the region forward so the full footprint is covered
		// over time.
		if s.seqCur < s.sweepBase || s.seqCur-s.sweepBase+uint64(n) > s.sweepLines {
			if s.seqCur >= s.sweepBase { // completed a pass: drift onward
				s.sweepBase = (s.sweepBase + s.sweepLines/16 + 1) % s.lines
			}
			s.seqCur = s.sweepBase
		}
		s.cur = s.seqCur
		s.seqCur += uint64(n)
		return
	}
	s.runLeft = 1
	s.stride = 0
	pool := s.lines
	if s.rng.Float64() < s.w.HotProb {
		pool = s.hotLines // temporal reuse: revisit the hot set
	}
	s.cur = uint64(s.rng.Int63()) % pool
}

// FillLine synthesizes the current architectural contents of virtual line
// vline (vaddr>>6) into buf: its value at its mutation count.
func (s *Stream) FillLine(vline uint64, buf []byte) {
	kind := s.w.Mix.kindFor(vline>>(vm.PageShift-6), s.seed)
	synthLine(kind, vline, s.version(vline), s.seed, buf)
}

// version returns vline's mutation count.
func (s *Stream) version(vline uint64) uint32 {
	if s.held && vline == s.last {
		return s.lastVer
	}
	return s.versions.get(vline)
}

// MutateLine advances the line's value (a store) by counting the store,
// and writes the new contents into buf unless buf is nil: a line's value
// is a pure function of its count, so a caller that reads values through
// FillLine need not build them here. The value kind — hence
// compressibility — is stable.
func (s *Stream) MutateLine(vline uint64, buf []byte) {
	if !s.held || vline != s.last {
		if s.held {
			s.versions.set(s.last, s.lastVer)
		}
		s.held, s.last, s.lastVer = true, vline, s.versions.get(vline)
	}
	s.lastVer++
	if buf != nil {
		s.FillLine(vline, buf)
	}
}

// FillLineInit is FillLine specialized to first touch, where the mutation
// count is provably zero: page initialization runs before any store can
// reach the page (a store must translate first, and translation is what
// triggers initialization). Skipping the version lookup matters because
// initialization touches every line of every allocated page exactly once.
func (s *Stream) FillLineInit(vline uint64, buf []byte) {
	kind := s.w.Mix.kindFor(vline>>(vm.PageShift-6), s.seed)
	synthLine(kind, vline, 0, s.seed, buf)
}

// PageInitBounds bounds the two words first-touch marker screening reads
// of every line FillLineInit would synthesize for the page whose first
// virtual line is vlineBase, without synthesizing any of them or running
// their hash chains, except a Random page's, whose bounds are its lines'
// exact words. Line i's bound is mem.LineBound{Lo: lo[i], Span: span}: the
// span is the page's value kind's (initSpan), which is looked up once.
func (s *Stream) PageInitBounds(vlineBase uint64, lo *[vm.PageLines]mem.LineWords) (span mem.LineWords) {
	kind := s.w.Mix.kindFor(vlineBase>>(vm.PageShift-6), s.seed)
	for i := range lo {
		lo[i] = initLo(kind, vlineBase+uint64(i), s.seed)
	}
	return initSpan(kind)
}

// InitWords returns the exact words of the line FillLineInit would
// synthesize for vline, without synthesizing it: what a screen that
// vline's PageInitBounds bound could not settle re-checks.
func (s *Stream) InitWords(vline uint64) mem.LineWords {
	return initWords(s.w.Mix.kindFor(vline>>(vm.PageShift-6), s.seed), vline, s.seed)
}
