package workload

import (
	"bytes"
	"math/rand"
	"testing"

	"ptmc/internal/compress"
	"ptmc/internal/vm"
)

func TestTableValidates(t *testing.T) {
	for _, w := range All() {
		if err := w.Validate(); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
	}
}

func TestLookup(t *testing.T) {
	w, err := Lookup("mcf06")
	if err != nil || w.Name != "mcf06" {
		t.Fatalf("Lookup(mcf06) = %v, %v", w, err)
	}
	if _, err := Lookup("nope"); err == nil {
		t.Error("unknown workload should error")
	}
}

func TestMixesReferToRealWorkloads(t *testing.T) {
	for _, m := range Mixes() {
		if len(m.Parts) != 8 {
			t.Errorf("%s: %d parts, want 8", m.Name, len(m.Parts))
		}
		for _, p := range m.Parts {
			if _, err := Lookup(p); err != nil {
				t.Errorf("%s: %v", m.Name, err)
			}
		}
	}
	if _, err := LookupMix("mix1"); err != nil {
		t.Error(err)
	}
	if _, err := LookupMix("mix99"); err == nil {
		t.Error("unknown mix should error")
	}
}

func TestSixtyFourWorkloadsForFigure17(t *testing.T) {
	// Paper §VI-B: 64 workloads total across suites and mixes.
	if got := len(All()) + len(Mixes()); got != 64 {
		t.Errorf("total workloads = %d, want 64", got)
	}
}

func TestSuiteSplits(t *testing.T) {
	if n := len(Suite("gap")); n != 16 {
		t.Errorf("gap suite = %d, want 16", n)
	}
	if n := len(HighMPKI()); n != 21 {
		t.Errorf("high-MPKI SPEC set = %d workloads", n)
	}
	for _, w := range HighMPKI() {
		if w.Suite == "gap" {
			t.Errorf("%s: gap workload in SPEC high-MPKI set", w.Name)
		}
	}
	if len(Names()) != 64 {
		t.Errorf("Names() = %d entries", len(Names()))
	}
}

func TestStreamDeterminism(t *testing.T) {
	w, _ := Lookup("mcf06")
	s1, s2 := w.NewStream(5), w.NewStream(5)
	for i := 0; i < 1000; i++ {
		if s1.Next() != s2.Next() {
			t.Fatal("same seed must give identical streams")
		}
	}
	s3 := w.NewStream(6)
	same := 0
	for i := 0; i < 1000; i++ {
		if s1.Next() == s3.Next() {
			same++
		}
	}
	if same > 100 {
		t.Errorf("different seeds produced %d/1000 identical ops", same)
	}
}

func TestStreamStaysInFootprint(t *testing.T) {
	for _, name := range []string{"libquantum06", "mcf06", "pr-twitter", "leela17"} {
		w, _ := Lookup(name)
		s := w.NewStream(1)
		for i := 0; i < 20_000; i++ {
			op := s.Next()
			if op.VAddr >= w.FootprintBytes {
				t.Fatalf("%s: vaddr %#x outside footprint %#x", name, op.VAddr, w.FootprintBytes)
			}
			if op.Gap < 0 || op.Gap > 1000 {
				t.Fatalf("%s: gap %d out of range", name, op.Gap)
			}
		}
	}
}

func TestWriteFractionRoughlyHonored(t *testing.T) {
	w, _ := Lookup("lbm06") // WriteFrac 0.45
	s := w.NewStream(2)
	writes := 0
	const n = 50_000
	for i := 0; i < n; i++ {
		if s.Next().Write {
			writes++
		}
	}
	frac := float64(writes) / n
	if frac < 0.40 || frac > 0.50 {
		t.Errorf("write fraction = %.3f, want ~0.45", frac)
	}
}

func TestSequentialWorkloadHasRuns(t *testing.T) {
	// Sequentiality is measured at line granularity: dwell accesses to the
	// same line are not transitions.
	seqFrac := func(name string) float64 {
		w, _ := Lookup(name)
		s := w.NewStream(3)
		prev := uint64(0)
		seq, trans := 0, 0
		for i := 0; i < 60_000; i++ {
			line := s.Next().VAddr >> 6
			if line == prev {
				continue
			}
			trans++
			if line == prev+1 {
				seq++
			}
			prev = line
		}
		return float64(seq) / float64(trans)
	}
	if frac := seqFrac("libquantum06"); frac < 0.5 {
		t.Errorf("sequential fraction = %.2f, want > 0.5 for a streaming workload", frac)
	}
	if frac := seqFrac("pr-twitter"); frac > 0.4 {
		t.Errorf("graph sequential fraction = %.2f, want low", frac)
	}
}

func TestFillLineDeterministicUntilMutated(t *testing.T) {
	w, _ := Lookup("lbm06")
	s := w.NewStream(4)
	a, b := make([]byte, 64), make([]byte, 64)
	s.FillLine(100, a)
	s.FillLine(100, b)
	if !bytes.Equal(a, b) {
		t.Error("FillLine must be deterministic")
	}
	s.MutateLine(100, b)
	if bytes.Equal(a, b) {
		t.Error("MutateLine must change the contents")
	}
	c := make([]byte, 64)
	s.FillLine(100, c)
	if !bytes.Equal(b, c) {
		t.Error("FillLine must reflect the mutation")
	}
}

// TestValueMixCompressibilityOrdering: the measured pair-compressibility
// (Figure 6's metric: two adjacent lines fitting 60 bytes) must track the
// declared mixes — very compressible > graph > incompressible.
func TestValueMixCompressibilityOrdering(t *testing.T) {
	alg := compress.Hybrid{}
	pairRate := func(name string) float64 {
		w, _ := Lookup(name)
		s := w.NewStream(9)
		fit := 0
		const pairs = 2000
		l0, l1 := make([]byte, 64), make([]byte, 64)
		for i := 0; i < pairs; i++ {
			vline := uint64(i * 2)
			s.FillLine(vline, l0)
			s.FillLine(vline+1, l1)
			if _, ok := compress.CompressGroup(alg, [][]byte{l0, l1}, 60); ok {
				fit++
			}
		}
		return float64(fit) / pairs
	}
	lq := pairRate("libquantum06")
	gr := pairRate("pr-twitter")
	xz := pairRate("xz17")
	if !(lq > gr && gr > xz) {
		t.Errorf("pair-compressibility ordering broken: libquantum=%.2f graph=%.2f xz=%.2f", lq, gr, xz)
	}
	if lq < 0.5 {
		t.Errorf("libquantum pair rate = %.2f, want high", lq)
	}
	if xz > 0.25 {
		t.Errorf("xz pair rate = %.2f, want low", xz)
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	bad := []Workload{
		{Name: "a", FootprintBytes: 100, MemFrac: 0.3, SeqRun: 1, Mix: veryCompressible},
		{Name: "b", FootprintBytes: 1 << 20, MemFrac: 0, SeqRun: 1, Mix: veryCompressible},
		{Name: "c", FootprintBytes: 1 << 20, MemFrac: 0.3, WriteFrac: 1.5, SeqRun: 1, Mix: veryCompressible},
		{Name: "d", FootprintBytes: 1 << 20, MemFrac: 0.3, SeqRun: 0, Mix: veryCompressible},
		{Name: "e", FootprintBytes: 1 << 20, MemFrac: 0.3, SeqRun: 1, SeqProb: -1, Mix: veryCompressible},
		{Name: "f", FootprintBytes: 1 << 20, MemFrac: 0.3, SeqRun: 1, HotProb: 2, Mix: veryCompressible},
		{Name: "g", FootprintBytes: 1 << 20, MemFrac: 0.3, SeqRun: 1},
	}
	for _, w := range bad {
		if err := w.Validate(); err == nil {
			t.Errorf("workload %s should fail validation", w.Name)
		}
	}
}

func TestHotSetReuse(t *testing.T) {
	// A cache-resident workload re-touches a small set of lines.
	w, _ := Lookup("leela17")
	s := w.NewStream(8)
	seen := map[uint64]int{}
	for i := 0; i < 30_000; i++ {
		seen[s.Next().VAddr>>6]++
	}
	// Strong reuse: distinct lines far fewer than accesses.
	if len(seen) > 15_000 {
		t.Errorf("cache-resident workload touched %d distinct lines in 30k accesses", len(seen))
	}
}

// TestMutateLineCountsPerLine interleaves stores to a few lines — runs on
// one line and switches between lines, some with a nil buffer, which only
// counts the store — and checks every synthesized value against each
// line's own mutation count.
func TestMutateLineCountsPerLine(t *testing.T) {
	w, err := Lookup("mcf06")
	if err != nil {
		t.Fatal(err)
	}
	s := w.NewStream(3)
	rng := rand.New(rand.NewSource(4))
	count := map[uint64]uint32{}
	got, want := make([]byte, 64), make([]byte, 64)
	for i := 0; i < 5000; i++ {
		vline := uint64(rng.Intn(6)) * 67
		check := s.FillLine
		switch rng.Intn(3) {
		case 1:
			count[vline]++
			check = s.MutateLine
		case 2: // a store that only counts; FillLine reads its value
			count[vline]++
			s.MutateLine(vline, nil)
		}
		check(vline, got)
		synthLine(w.Mix.kindFor(vline>>(vm.PageShift-6), s.seed), vline, count[vline], s.seed, want)
		if !bytes.Equal(got, want) {
			t.Fatalf("op %d: line %d after %d stores reads a different value", i, vline, count[vline])
		}
	}
}
