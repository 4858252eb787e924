package core

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"

	"ptmc/internal/mem"
)

func TestMarkersAreDeterministicAndPerLine(t *testing.T) {
	g := NewMarkerGen(42)
	if g.Marker2(5) != g.Marker2(5) || g.Marker4(5) != g.Marker4(5) {
		t.Error("markers must be deterministic")
	}
	diff := 0
	for a := mem.LineAddr(0); a < 100; a++ {
		if g.Marker2(a) != g.Marker2(a+1) {
			diff++
		}
	}
	if diff < 95 {
		t.Errorf("per-line markers should almost always differ (got %d/100)", diff)
	}
}

func TestMarkerDistinctnessInvariants(t *testing.T) {
	g := NewMarkerGen(7)
	for a := mem.LineAddr(0); a < 10_000; a++ {
		m2, m4 := g.Marker2(a), g.Marker4(a)
		if m2 == m4 || m2 == ^m4 {
			t.Fatalf("line %d: m2/m4 degenerate: %08x %08x", a, m2, m4)
		}
		il := g.MarkerIL(a)
		tail := binary.LittleEndian.Uint32(il[CompressedBudget:])
		if tail == m2 || tail == m4 || tail == ^m2 || tail == ^m4 {
			t.Fatalf("line %d: Marker-IL tail collides with markers", a)
		}
	}
}

func TestReKeyChangesMarkers(t *testing.T) {
	g := NewMarkerGen(1)
	m2, m4, il := g.Marker2(9), g.Marker4(9), g.MarkerIL(9)
	g.ReKey()
	if g.Generation() != 1 {
		t.Errorf("generation = %d, want 1", g.Generation())
	}
	il2 := g.MarkerIL(9)
	if g.Marker2(9) == m2 && g.Marker4(9) == m4 && bytes.Equal(il[:], il2[:]) {
		t.Error("re-key should change per-line markers")
	}
}

func TestClassifyCompressed(t *testing.T) {
	g := NewMarkerGen(3)
	a := mem.LineAddr(40)
	sealed2 := g.SealCompressed(a, []byte{1, 2, 3}, false)
	if got := g.Classify(a, sealed2[:]); got != ClassComp2 {
		t.Errorf("2:1 sealed line classified %v", got)
	}
	sealed4 := g.SealCompressed(a, bytes.Repeat([]byte{9}, 60), true)
	if got := g.Classify(a, sealed4[:]); got != ClassComp4 {
		t.Errorf("4:1 sealed line classified %v", got)
	}
	// Sealed for address a, read as address a+1: per-line markers make
	// stale cross-address confusion essentially impossible.
	if got := g.Classify(a+1, sealed2[:]); got == ClassComp2 {
		t.Error("per-line marker matched at the wrong address")
	}
}

func TestSealRejectsOversizedBlob(t *testing.T) {
	g := NewMarkerGen(3)
	defer func() {
		if recover() == nil {
			t.Error("blob > 60 bytes must panic")
		}
	}()
	g.SealCompressed(0, make([]byte, 61), false)
}

func TestClassifyInvalid(t *testing.T) {
	g := NewMarkerGen(4)
	a := mem.LineAddr(77)
	il := g.MarkerIL(a)
	if got := g.Classify(a, il[:]); got != ClassInvalid {
		t.Errorf("Marker-IL classified %v", got)
	}
	// Another address's Marker-IL is just data here.
	other := g.MarkerIL(a + 1)
	if got := g.Classify(a, other[:]); got != ClassUncompressed {
		t.Errorf("foreign Marker-IL classified %v", got)
	}
}

func TestClassifyOrdinaryData(t *testing.T) {
	g := NewMarkerGen(5)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 50_000; i++ {
		a := mem.LineAddr(rng.Intn(1 << 20))
		line := make([]byte, mem.LineSize)
		rng.Read(line)
		if g.CollidesWithMarkers(a, line) {
			continue // astronomically rare; skip
		}
		c := g.Classify(a, line)
		if c != ClassUncompressed && !c.NeedsLIT() {
			t.Fatalf("random non-colliding line classified %v", c)
		}
		if c.NeedsLIT() {
			// Possible but ~2^-32 each; with 50k trials this should
			// essentially never fire. Accept, since LIT-miss resolves it.
			t.Logf("trial %d: complement coincidence (%v)", i, c)
		}
	}
}

// TestCollisionInversionRoundTrip is the §IV-C scenario: a CPU line whose
// tail equals its own marker must be stored inverted and classified as a
// LIT-consulting complement on read.
func TestCollisionInversionRoundTrip(t *testing.T) {
	g := NewMarkerGen(6)
	a := mem.LineAddr(123)

	for _, four := range []bool{false, true} {
		line := make([]byte, mem.LineSize)
		for i := range line {
			line[i] = byte(i * 3)
		}
		m := g.Marker2(a)
		want := ClassInvComp2
		if four {
			m = g.Marker4(a)
			want = ClassInvComp4
		}
		binary.LittleEndian.PutUint32(line[CompressedBudget:], m)
		if !g.CollidesWithMarkers(a, line) {
			t.Fatal("engineered collision not detected")
		}
		stored := Invert(line)
		if got := g.Classify(a, stored); got != want {
			t.Errorf("inverted collision classified %v, want %v", got, want)
		}
		if !bytes.Equal(Invert(stored), line) {
			t.Error("double inversion must restore the original")
		}
	}

	// CPU data equal to the line's own Marker-IL: also inverted+tracked.
	il := g.MarkerIL(a)
	if !g.CollidesWithMarkers(a, il[:]) {
		t.Fatal("Marker-IL-valued data must collide")
	}
	stored := Invert(il[:])
	if got := g.Classify(a, stored); got != ClassInvIL {
		t.Errorf("inverted IL-collision classified %v, want ClassInvIL", got)
	}
}

// TestQuickClassifySound: for arbitrary data, Classify and
// CollidesWithMarkers agree — any line that would be stored as-is (no
// collision) classifies as uncompressed or a LIT-consulting complement,
// never as compressed or invalid.
func TestQuickClassifySound(t *testing.T) {
	g := NewMarkerGen(8)
	f := func(addr uint32, data [mem.LineSize]byte) bool {
		a := mem.LineAddr(addr)
		c := g.Classify(a, data[:])
		collides := g.CollidesWithMarkers(a, data[:])
		if collides {
			return c == ClassComp2 || c == ClassComp4 || c == ClassInvalid
		}
		return c == ClassUncompressed || c.NeedsLIT()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

// TestMayCollideBoundIsSound: a bound screens in every line its exact
// words screen in. Bounds of random spans around random lines, and around
// lines engineered to carry each compression marker in the tail or
// Marker-IL's word 0, must screen in whenever the exact words do, and the
// engineered ones always.
func TestMayCollideBoundIsSound(t *testing.T) {
	g := NewMarkerGen(9)
	rng := rand.New(rand.NewSource(11))
	widen := func(w mem.LineWords) mem.LineBound { // spans 0 to full
		span := mem.LineWords{W0: ^uint64(0) >> rng.Intn(65), Tail: ^uint32(0) >> rng.Intn(33)}
		return mem.LineBound{Lo: mem.LineWords{W0: w.W0 - rng.Uint64()&span.W0, Tail: w.Tail - rng.Uint32()&span.Tail}, Span: span}
	}
	for i := 0; i < 20000; i++ {
		a := mem.LineAddr(rng.Uint64() >> 6)
		line := make([]byte, mem.LineSize)
		rng.Read(line)
		switch i % 4 {
		case 1:
			binary.LittleEndian.PutUint32(line[CompressedBudget:], g.Marker2(a))
		case 2:
			binary.LittleEndian.PutUint32(line[CompressedBudget:], g.Marker4(a))
		case 3:
			il := g.MarkerIL(a)
			copy(line, il[:8])
		}
		w := mem.WordsOf(line)
		b := widen(w)
		if !b.HasW0(w.W0) || !b.HasTail(w.Tail) {
			t.Fatalf("widened bound %+v misses the words %+v", b, w)
		}
		exact := g.MayCollide(a, mem.LineBound{Lo: w})
		if i%4 != 0 && !exact {
			t.Fatalf("line %d case %d: engineered collision not screened in", a, i%4)
		}
		if exact && !g.MayCollide(a, b) {
			t.Fatalf("line %d case %d: exact words screen in, bound %+v does not", a, i%4, b)
		}
	}
}

func TestInvertLength(t *testing.T) {
	in := []byte{0x00, 0xFF, 0xA5}
	out := Invert(in)
	want := []byte{0xFF, 0x00, 0x5A}
	if !bytes.Equal(out, want) {
		t.Errorf("Invert = %x, want %x", out, want)
	}
}

// TestMayCollideScreensEveryCollision: the two-word screen never misses a
// collision — engineered ones (each compression marker in the tail, the
// Marker-IL line itself) and any line CollidesWithMarkers flags — and
// passes ordinary data.
func TestMayCollideScreensEveryCollision(t *testing.T) {
	g := NewMarkerGen(5)
	rng := rand.New(rand.NewSource(3))
	screen := func(a mem.LineAddr, line []byte) bool {
		return g.MayCollide(a, mem.ExactBound(line))
	}
	for i := 0; i < 2000; i++ {
		a := mem.LineAddr(rng.Uint64() >> 6)
		line := make([]byte, mem.LineSize)
		rng.Read(line)
		if screen(a, line) {
			t.Fatalf("line %d: random data screened in", a)
		}
		for _, m := range []uint32{g.Marker2(a), g.Marker4(a)} {
			binary.LittleEndian.PutUint32(line[CompressedBudget:], m)
			if !g.CollidesWithMarkers(a, line) || !screen(a, line) {
				t.Fatalf("line %d: marker %#x in the tail not screened in", a, m)
			}
		}
		il := g.MarkerIL(a)
		if !g.CollidesWithMarkers(a, il[:]) || !screen(a, il[:]) {
			t.Fatalf("line %d: Marker-IL not screened in", a)
		}
		// Word 0 of Marker-IL alone screens in (CollidesWithMarkers then
		// clears it); the rest of the line cannot screen out a collision.
		rng.Read(line)
		copy(line, il[:8])
		if !screen(a, line) || g.CollidesWithMarkers(a, line) {
			t.Fatalf("line %d: Marker-IL word 0 must screen in and check out clean", a)
		}
	}
}
