package workload

import (
	"bytes"
	"testing"

	"ptmc/internal/compress"
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
				if got, want := initWords(k, vline, seed), WordsOf(buf); got != want {
					t.Fatalf("kind %d vline %d seed %d: initWords = %+v, synthLine gives %+v", k, vline, seed, got, want)
				}
			}
		}
	}
}

// TestPageInitWordsMatchFillLineInit: a stream's page-level screen words
// equal the words of the lines FillLineInit synthesizes, on pages of every
// kind of a mixed workload.
func TestPageInitWordsMatchFillLineInit(t *testing.T) {
	w := &Workload{Name: "allkinds", Suite: "micro", FootprintBytes: 4 << 20, MemFrac: 0.3,
		SeqProb: 0.5, SeqRun: 4, Mix: ValueMix{{KindZero, 1}, {KindSmallInt, 1}, {KindDelta8, 1},
			{KindPointer, 1}, {KindFP, 1}, {KindRandom, 1}}}
	s := w.NewStream(42)
	var words [64]LineWords
	buf := make([]byte, 64)
	for page := uint64(0); page < 64; page++ {
		s.PageInitWords(page*64, &words)
		for i, got := range words {
			s.FillLineInit(page*64+uint64(i), buf)
			if want := WordsOf(buf); got != want {
				t.Fatalf("page %d line %d: PageInitWords = %+v, FillLineInit gives %+v", page, i, got, want)
			}
		}
	}
}
