package memctrl

import (
	"bytes"
	"encoding/binary"
	"testing"

	"ptmc/internal/core"
	"ptmc/internal/mem"
)

// initLazyPage registers the page at base lazily in both stores and runs
// the simulator's first-touch protocol over it: screen every line from its
// exact words (a zero-span bound), then run InitLine on the screened-in
// lines in order.
func initLazyPage(r *testRig, base mem.LineAddr, fill func(mem.LineAddr, []byte)) {
	r.img.MarkLazy(base)
	r.arch.MarkLazy(base)
	var line [mem.LineSize]byte
	var screened []mem.LineAddr
	for i := 0; i < mem.PageLines; i++ {
		a := base + mem.LineAddr(i)
		fill(a, line[:])
		if r.ctrl.InitScreen(a, mem.ExactBound(line[:])) {
			screened = append(screened, a)
		}
	}
	for _, a := range screened {
		r.ctrl.InitLine(a)
	}
}

// TestReKeyScreensLazyLines: a line the sparse image has never stored was
// screened against the markers current at its page's first touch only. A
// re-key must screen it against the new generation too: here the line is
// engineered to collide with exactly the next generation, and a LIT
// overflow elsewhere forces the re-key. Afterwards the line must be stored
// inverted and LIT-tracked, the whole image must verify, and a read must
// return the architectural value.
func TestReKeyScreensLazyLines(t *testing.T) {
	r := newPTMCRig(t)
	p := r.ctrl.(*PTMC)
	const victim = mem.LineAddr(8*mem.PageLines + 5)
	next := *p.Markers()
	next.ReKey()
	engineered := incompressibleLine(99)
	binary.LittleEndian.PutUint32(engineered[60:], next.Marker2(victim))
	if p.Markers().CollidesWithMarkers(victim, engineered) || !next.CollidesWithMarkers(victim, engineered) {
		t.Fatal("engineered line must collide with the next marker generation only")
	}
	fill := func(a mem.LineAddr, buf []byte) {
		if a == victim {
			copy(buf, engineered)
			return
		}
		copy(buf, incompressibleLine(uint64(a)))
	}
	r.img.SetLazyFill(fill)
	r.arch.SetLazyFill(fill)
	initLazyPage(r, victim&^(mem.PageLines-1), fill)
	if r.img.Materialized(victim) {
		t.Fatal("a screened-out line must stay unmaterialized at page init")
	}

	// LIT overflow: one more colliding writeback than the LIT holds.
	for i := 0; i <= core.LITEntries; i++ {
		a := mem.LineAddr(1000 + i*4)
		val := incompressibleLine(uint64(i))
		binary.LittleEndian.PutUint32(val[60:], p.Markers().Marker2(a))
		r.write(0, a, val)
		r.evict(a)
	}
	if p.Stats().ReKeys != 1 || p.Markers().Generation() != 1 {
		t.Fatalf("want exactly one re-key, got %d (generation %d)", p.Stats().ReKeys, p.Markers().Generation())
	}

	if !r.img.Materialized(victim) {
		t.Fatal("re-key left the colliding lazy line unstored")
	}
	if inv, _ := p.LIT().Contains(victim); !inv {
		t.Error("colliding lazy line is not LIT-tracked after the re-key")
	}
	if !bytes.Equal(r.img.Read(victim), core.Invert(engineered)) {
		t.Error("colliding lazy line must be stored inverted")
	}
	if _, err := p.VerifyImage(r.resident); err != nil {
		t.Fatalf("image after re-key: %v", err)
	}
	wantLine(t, r.read(0, victim), engineered, "read of the re-keyed line")
	if st := p.Stats(); st.IntegrityErrs != 0 || st.Degradations() != 0 {
		t.Errorf("read of the re-keyed line: %d integrity errors, %d degradations", st.IntegrityErrs, st.Degradations())
	}
}

// TestLazyImageVerifiesUnstored: VerifyImage covers the lines a sparse
// image never stored, without storing them — and names a lazy line whose
// raw value collides with the current markers, which an image must never
// hold unscreened.
func TestLazyImageVerifiesUnstored(t *testing.T) {
	r := newPTMCRig(t)
	p := r.ctrl.(*PTMC)
	const victim = mem.LineAddr(3*mem.PageLines + 9)
	var planted []byte // set after page init: the fill's value for victim
	fill := func(a mem.LineAddr, buf []byte) {
		if a == victim && planted != nil {
			copy(buf, planted)
			return
		}
		copy(buf, incompressibleLine(uint64(a)))
	}
	r.img.SetLazyFill(fill)
	r.arch.SetLazyFill(fill)
	initLazyPage(r, victim&^(mem.PageLines-1), fill)
	n, err := p.VerifyImage(nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != mem.PageLines {
		t.Errorf("verified %d lines, want the page's %d", n, mem.PageLines)
	}
	if got := r.img.MaterializedLines() + r.arch.MaterializedLines(); got != 0 {
		t.Errorf("VerifyImage materialized %d lines", got)
	}

	// An unscreened collision: the line's raw value now carries its 2:1
	// marker, so the image claims a compressed unit at a misplaced home.
	planted = incompressibleLine(7)
	binary.LittleEndian.PutUint32(planted[60:], p.Markers().Marker2(victim))
	if _, err := p.VerifyImage(nil); err == nil {
		t.Fatal("VerifyImage accepted a lazy line that collides with the current markers")
	}
}

// TestLazyInitFixesEngineeredCollisions: page init of a lazy page whose
// raw lines collide with the current markers — a compression marker in the
// tail, or the whole Marker-IL — screens those lines in, stores them
// inverted and LIT-tracked, and leaves every other line unstored.
func TestLazyInitFixesEngineeredCollisions(t *testing.T) {
	r := newPTMCRig(t)
	p := r.ctrl.(*PTMC)
	const base = mem.LineAddr(6 * mem.PageLines)
	m := p.Markers()
	colliding := map[mem.LineAddr][]byte{}
	for i, mk := range []func(a mem.LineAddr) []byte{
		func(a mem.LineAddr) []byte {
			l := incompressibleLine(1)
			binary.LittleEndian.PutUint32(l[60:], m.Marker2(a))
			return l
		},
		func(a mem.LineAddr) []byte {
			l := incompressibleLine(2)
			binary.LittleEndian.PutUint32(l[60:], m.Marker4(a))
			return l
		},
		func(a mem.LineAddr) []byte { il := m.MarkerIL(a); return il[:] },
	} {
		a := base + mem.LineAddr(10*i+3)
		colliding[a] = mk(a)
	}
	fill := func(a mem.LineAddr, buf []byte) {
		if l, ok := colliding[a]; ok {
			copy(buf, l)
			return
		}
		copy(buf, incompressibleLine(uint64(a)))
	}
	r.img.SetLazyFill(fill)
	r.arch.SetLazyFill(fill)
	initLazyPage(r, base, fill)
	for a, l := range colliding {
		if inv, _ := p.LIT().Contains(a); !inv || !bytes.Equal(r.img.Read(a), core.Invert(l)) {
			t.Errorf("line %d: colliding first-touch value not stored inverted and LIT-tracked", a)
		}
	}
	if got := r.img.MaterializedLines(); got != len(colliding) {
		t.Errorf("image stores %d lines after page init, want only the %d collisions", got, len(colliding))
	}
	if _, err := p.VerifyImage(nil); err != nil {
		t.Fatal(err)
	}
	for a, l := range colliding {
		wantLine(t, r.read(0, a), l, "read of a fixed-up line")
	}
	if st := p.Stats(); st.IntegrityErrs != 0 || st.Degradations() != 0 {
		t.Errorf("%d integrity errors, %d degradations", st.IntegrityErrs, st.Degradations())
	}
}

// TestReadsStoreNothing: a read learns a line's layout from what DRAM
// holds and stores nothing. Under every scheme, two lazily registered pages
// go through first touch (screen, then InitLine), the first page's first
// four groups are rewritten and written back (so compressed units,
// tombstones and metadata state exist), and then every line of both pages
// is demand-read into an LLC large enough that nothing is evicted. Neither
// store may gain a stored line across the reads, and every fill must
// decode to the architectural value.
func TestReadsStoreNothing(t *testing.T) {
	const base = mem.LineAddr(4 * mem.PageLines)
	fill := func(a mem.LineAddr, buf []byte) {
		switch a % 3 {
		case 0:
			copy(buf, compressibleLine(byte(a)))
		case 1:
			copy(buf, pairOnlyLine(byte(a)))
		default:
			copy(buf, incompressibleLine(uint64(a)))
		}
	}
	for _, sc := range fuzzSchemes {
		t.Run(sc.name, func(t *testing.T) {
			r := newRig(t, 1<<20, sc.build)
			r.img.SetLazyFill(fill)
			r.arch.SetLazyFill(fill)
			initLazyPage(r, base, fill)
			initLazyPage(r, base+mem.PageLines, fill)
			for a := base; a < base+16; a++ {
				r.write(0, a, compressibleLine(byte(a)))
			}
			r.flushAll()

			img, arch := r.img.MaterializedLines(), r.arch.MaterializedLines()
			evictions := r.llc.c.Stats.Evictions
			reads := 0
			for a := base; a < base+2*mem.PageLines; a++ {
				if _, in := r.llc.Probe(a); in {
					continue // installed by a neighbor's compressed fill
				}
				r.ctrl.Read(0, a, r.now, func(int64) {})
				r.drain()
				reads++
			}
			if reads < mem.PageLines || r.llc.c.Stats.Evictions != evictions {
				t.Fatalf("%d reads, %d evictions: the reads must cover both pages and evict nothing",
					reads, r.llc.c.Stats.Evictions-evictions)
			}
			if gi, ga := r.img.MaterializedLines(), r.arch.MaterializedLines(); gi != img || ga != arch {
				t.Errorf("reads stored lines: image %d -> %d, architectural %d -> %d", img, gi, arch, ga)
			}
			if st := r.ctrl.Stats(); st.IntegrityErrs != 0 || st.Degradations() != 0 {
				t.Errorf("%d integrity errors, %d degradations", st.IntegrityErrs, st.Degradations())
			}
			if p, ok := r.ctrl.(*PTMC); ok {
				if _, err := p.VerifyImage(r.resident); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
