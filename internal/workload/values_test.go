package workload

import (
	"bytes"
	"testing"

	"ptmc/internal/compress"
	"ptmc/internal/mem"
)

func synth(kind ValueKind, vline uint64, version uint32) []byte {
	buf := make([]byte, 64)
	synthLine(kind, vline, version, 0xFEED, buf)
	return buf
}

func TestSynthDeterministic(t *testing.T) {
	for k := ValueKind(0); k < numKinds; k++ {
		a, b := synth(k, 42, 0), synth(k, 42, 0)
		if !bytes.Equal(a, b) {
			t.Errorf("kind %d not deterministic", k)
		}
		c := synth(k, 43, 0)
		if k != KindZero && bytes.Equal(a, c) {
			t.Errorf("kind %d: different lines identical", k)
		}
		d := synth(k, 42, 1)
		if k == KindRandom || k == KindZero || k == KindSmallInt {
			if bytes.Equal(a, d) {
				t.Errorf("kind %d: version bump did not change line", k)
			}
		}
	}
}

func TestKindCompressibilityOrdering(t *testing.T) {
	alg := compress.Hybrid{}
	avgSize := func(k ValueKind) float64 {
		total := 0
		for i := uint64(0); i < 200; i++ {
			total += len(alg.Compress(synth(k, i, 0)))
		}
		return float64(total) / 200
	}
	zero := avgSize(KindZero)
	small := avgSize(KindSmallInt)
	delta := avgSize(KindDelta8)
	random := avgSize(KindRandom)
	if !(zero < small && small < random && delta < random) {
		t.Errorf("compressibility ordering broken: zero=%.1f small=%.1f delta=%.1f random=%.1f",
			zero, small, delta, random)
	}
	if zero > 8 {
		t.Errorf("zero-kind lines average %.1f bytes, want tiny", zero)
	}
	if random < 60 {
		t.Errorf("random-kind lines average %.1f bytes, want incompressible", random)
	}
}

func TestKindStablePerPage(t *testing.T) {
	mix := ValueMix{{KindZero, 1}, {KindRandom, 1}}
	// All lines of a page share a kind; kinds vary across pages.
	seen := map[ValueKind]bool{}
	for page := uint64(0); page < 64; page++ {
		k := mix.kindFor(page, 7)
		seen[k] = true
		if k2 := mix.kindFor(page, 7); k2 != k {
			t.Fatal("kindFor not deterministic")
		}
	}
	if len(seen) != 2 {
		t.Errorf("64 pages hit %d kinds, want both", len(seen))
	}
}

func TestMixWeightsRespected(t *testing.T) {
	mix := ValueMix{{KindZero, 90}, {KindRandom, 10}}
	zeros := 0
	const pages = 5000
	for page := uint64(0); page < pages; page++ {
		if mix.kindFor(page, 3) == KindZero {
			zeros++
		}
	}
	frac := float64(zeros) / pages
	if frac < 0.85 || frac > 0.95 {
		t.Errorf("zero fraction = %.3f, want ~0.90", frac)
	}
}

func TestPointerKindSharesHighBits(t *testing.T) {
	line := synth(KindPointer, 100, 0)
	var first uint64
	for i := 0; i < 8; i++ {
		var v uint64
		for b := 7; b >= 0; b-- {
			v = v<<8 | uint64(line[i*8+b])
		}
		if i == 0 {
			first = v >> 24
			continue
		}
		if v>>24 != first {
			t.Errorf("pointer %d has different high bits", i)
		}
	}
}

// TestInitWordsMatchSynthesis pins the first-touch screen's words to the
// synthesizer: for every value kind, initWords must equal word 0 and the
// tail word of the line synthLine builds at version 0.
func TestInitWordsMatchSynthesis(t *testing.T) {
	buf := make([]byte, 64)
	for k := ValueKind(0); k < numKinds; k++ {
		for _, seed := range []uint64{0, 1, 0xFEED, 1<<63 | 12345} {
			for i := uint64(0); i < 2000; i++ {
				vline := mix64(i^seed) >> (i % 40) // small and huge addresses
				synthLine(k, vline, 0, seed, buf)
				if got, want := initWords(k, vline, seed), mem.WordsOf(buf); got != want {
					t.Fatalf("kind %d vline %d seed %d: initWords = %+v, synthLine gives %+v", k, vline, seed, got, want)
				}
			}
		}
	}
}

// initBound is the bound first-touch screening gets for vline's version-0
// line (initLo, initSpan).
func initBound(kind ValueKind, vline, seed uint64) mem.LineBound {
	return mem.LineBound{Lo: initLo(kind, vline, seed), Span: initSpan(kind)}
}

// TestInitBoundHoldsInitWords: for every value kind, over a million
// (vline, seed) samples each, the bound first-touch screening gets for a
// line holds that line's version-0 words. A Random line's bound is its
// exact words; every other kind's spans more than one value.
func TestInitBoundHoldsInitWords(t *testing.T) {
	const samples = 1 << 20
	for k := ValueKind(0); k < numKinds; k++ {
		for i := uint64(0); i < samples; i++ {
			vline := mix64(i) >> (i % 48) // small and huge addresses
			seed := mix64(i ^ 0x5EED)
			if i%4 == 0 {
				seed = 0
			}
			b, w := initBound(k, vline, seed), initWords(k, vline, seed)
			if !b.HasW0(w.W0) || !b.HasTail(w.Tail) {
				t.Fatalf("kind %d vline %#x seed %#x: bound %+v misses words %+v", k, vline, seed, b, w)
			}
			if exact := k == KindRandom; b.Exact() != exact {
				t.Fatalf("kind %d: bound %+v, want exact %v", k, b, exact)
			}
		}
	}
}

// unmix64 inverts mix64.
func unmix64(v uint64) uint64 {
	inv := func(c uint64) uint64 { // c odd: Newton's iteration mod 2^64
		x := c
		for i := 0; i < 5; i++ {
			x *= 2 - c*x
		}
		return x
	}
	v ^= v>>31 ^ v>>62
	v *= inv(0x94D049BB133111EB)
	v ^= v>>27 ^ v>>54
	v *= inv(0xBF58476D1CE4E5B9)
	v ^= v>>30 ^ v>>60
	return v
}

// TestInitBoundDelta8Carry: a Delta8 line whose base sits just below a
// 2^32 boundary has word 7 past it, so its tail is the base's high word
// plus one, which the bound must hold. Random samples almost never reach
// such a base (120 in 2^32), so the seed is solved for it.
func TestInitBoundDelta8Carry(t *testing.T) {
	carried := 0
	for _, base := range []uint64{1<<40 | 0xFFFF_FFF0, 0xFFFF_FFFF_FFFF_FFF0} {
		for vline := uint64(0); vline < 8; vline++ {
			seed := unmix64(base) ^ vline>>3
			if delta8Base(vline, seed) != base {
				t.Fatalf("solved seed %#x gives base %#x, want %#x", seed, delta8Base(vline, seed), base)
			}
			b, w := initBound(KindDelta8, vline, seed), initWords(KindDelta8, vline, seed)
			if w.Tail != uint32(base>>32) {
				carried++
			}
			if !b.HasW0(w.W0) || !b.HasTail(w.Tail) {
				t.Fatalf("base %#x line %d: bound %+v misses words %+v", base, vline, b, w)
			}
		}
	}
	if carried == 0 {
		t.Fatal("no line's tail carried past its base's high word")
	}
}

// TestPageInitBoundsHoldFillLineInit: a stream's page-level screen bounds
// hold, and its InitWords equal, the words of the lines FillLineInit
// synthesizes, on pages of every kind of a mixed workload.
func TestPageInitBoundsHoldFillLineInit(t *testing.T) {
	w := &Workload{Name: "allkinds", Suite: "micro", FootprintBytes: 4 << 20, MemFrac: 0.3,
		SeqProb: 0.5, SeqRun: 4, Mix: ValueMix{{KindZero, 1}, {KindSmallInt, 1}, {KindDelta8, 1},
			{KindPointer, 1}, {KindFP, 1}, {KindRandom, 1}}}
	s := w.NewStream(42)
	var lo [64]mem.LineWords
	buf := make([]byte, 64)
	for page := uint64(0); page < 64; page++ {
		span := s.PageInitBounds(page*64, &lo)
		for i := range lo {
			b, vline := mem.LineBound{Lo: lo[i], Span: span}, page*64+uint64(i)
			s.FillLineInit(vline, buf)
			want := mem.WordsOf(buf)
			if got := s.InitWords(vline); got != want {
				t.Fatalf("page %d line %d: InitWords = %+v, FillLineInit gives %+v", page, i, got, want)
			}
			if !b.HasW0(want.W0) || !b.HasTail(want.Tail) {
				t.Fatalf("page %d line %d: PageInitBounds = %+v misses FillLineInit's words %+v", page, i, b, want)
			}
		}
	}
}
