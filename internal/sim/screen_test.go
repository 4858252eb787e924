package sim

import (
	"reflect"
	"testing"

	"ptmc/internal/core"
	"ptmc/internal/mem"
	"ptmc/internal/memctrl"
	"ptmc/internal/vm"
	"ptmc/internal/workload"
)

// exactWords hides a stream's page bounds, so screenPage screens its pages
// from the exact words of the lines FillLineInit synthesizes.
type exactWords struct{ source }

// screenRig is a PTMC simulator whose single core streams pages of one
// value kind, for comparing first-touch screens page by page.
type screenRig struct {
	s      *Simulator
	stream source
	g      *core.MarkerGen
}

func newScreenRig(t *testing.T, kinds ...workload.ValueKind) *screenRig {
	t.Helper()
	w := &workload.Workload{Name: "screen", Suite: "micro", FootprintBytes: 1 << 30, MemFrac: 0.3, SeqRun: 1}
	for _, k := range kinds {
		w.Mix = append(w.Mix, struct {
			Kind   workload.ValueKind
			Weight int
		}{k, 1})
	}
	cfg := Default()
	cfg.Custom = w
	cfg.Cores = 1
	cfg.Scheme = SchemePTMC
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &screenRig{s: s, stream: s.streams[0], g: s.ctrl.(*memctrl.PTMC).Markers()}
}

// bounds returns the screen bounds of the stream's page at vlineBase.
func (r *screenRig) bounds(vlineBase uint64) [vm.PageLines]mem.LineBound {
	var lo [vm.PageLines]mem.LineWords
	span := r.stream.(pageBounder).PageInitBounds(vlineBase, &lo)
	var b [vm.PageLines]mem.LineBound
	for i := range b {
		b[i] = mem.LineBound{Lo: lo[i], Span: span}
	}
	return b
}

// check screens the stream's page at vlineBase into the physical page at
// pageBase from its bounds and from its exact words; the screened sets
// must be equal. It returns the set.
func (r *screenRig) check(t *testing.T, pageBase mem.LineAddr, vlineBase uint64) []mem.LineAddr {
	t.Helper()
	got := r.s.screenPage(r.stream, pageBase, vlineBase)
	want := r.s.screenPage(exactWords{r.stream}, pageBase, vlineBase)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("page %d from vline %d: bounds screen in %v, exact words %v", pageBase, vlineBase, got, want)
	}
	return got
}

// tailHit reports whether a compression marker of line a lies in b's tail
// interval; a screened-in line for which it is false is screened in by
// Marker-IL's word 0.
func (r *screenRig) tailHit(a mem.LineAddr, b mem.LineBound) bool {
	return b.HasTail(r.g.Marker2(a)) || b.HasTail(r.g.Marker4(a))
}

// TestBoundScreenMatchesExactWords: screening a first-touched page from
// its lines' bounds, then the lines a bound cannot clear from their exact
// words, screens in exactly the lines the exact words alone do. Ordinary
// pages of every kind are compared first, then physical lines searched so
// that a marker or Marker-IL's word 0 falls inside a SmallInt, Pointer or
// Delta8 bound: the cases where the bound answers "maybe". A Pointer tail
// is exact, so its tail hit is a real collision that both screens keep.
func TestBoundScreenMatchesExactWords(t *testing.T) {
	t.Run("every-kind", func(t *testing.T) {
		r := newScreenRig(t, workload.KindZero, workload.KindSmallInt, workload.KindDelta8,
			workload.KindPointer, workload.KindFP, workload.KindRandom)
		for p := uint64(0); p < 2000; p++ {
			r.check(t, mem.LineAddr(p*7919)*vm.PageLines, p*vm.PageLines)
		}
	})

	// SmallInt: every line of a page has the same bound, so a search over
	// physical lines needs one page of it.
	t.Run("smallint", func(t *testing.T) {
		r := newScreenRig(t, workload.KindSmallInt)
		b := r.bounds(0)[0]
		var tail, w0 bool
		for a := mem.LineAddr(0); !(tail && w0); a++ {
			if a == 1<<26 {
				t.Fatalf("no marker in the SmallInt tail bound (%v) or Marker-IL word in its word-0 bound (%v) by line %d", tail, w0, a)
			}
			if !r.g.MayCollide(a, b) {
				continue
			}
			if hit := r.tailHit(a, b); hit && !tail || !hit && !w0 {
				tail, w0 = tail || hit, w0 || !hit
				r.check(t, a&^(vm.PageLines-1), 0)
			}
		}
	})

	// Pointer: a page's tail is its region's high word, 0x7F00-0x7FFF, and
	// its words lie within 16 MB above the region. Search for lines whose
	// marker or Marker-IL word 0 lies in the union of every region's bound,
	// then for a stream page whose region takes it.
	t.Run("pointer", func(t *testing.T) {
		r := newScreenRig(t, workload.KindPointer)
		union := mem.LineBound{Lo: mem.LineWords{W0: 0x7F00_0000_0000, Tail: 0x7F00}, Span: mem.LineWords{W0: 1<<40 - 1, Tail: 0xFF}}
		var tail, w0 bool
		for a := mem.LineAddr(0); !(tail && w0); a++ {
			if a == 1<<26 {
				t.Fatalf("no marker in a Pointer tail bound (%v) or Marker-IL word in a word-0 bound (%v) by line %d", tail, w0, a)
			}
			if !r.g.MayCollide(a, union) {
				continue
			}
			hit := r.tailHit(a, union)
			if hit && tail || !hit && w0 {
				continue
			}
			i := uint64(a) % vm.PageLines
			for vp := uint64(0); vp < 1<<20; vp++ {
				if !r.g.MayCollide(a, r.bounds(vp * vm.PageLines)[i]) {
					continue
				}
				screened := r.check(t, a&^(vm.PageLines-1), vp*vm.PageLines)
				if hit && (len(screened) == 0 || screened[0] != a) {
					t.Fatalf("line %d carries a compression marker in its tail, but its page screens in %v", a, screened)
				}
				tail, w0 = tail || hit, w0 || !hit
				break
			}
		}
	})

	// Delta8: eight lines share a base, and the tail is its high word or
	// the next. Meet in the middle: index the tail bounds of many stream
	// pages, then look each physical line's markers up.
	t.Run("delta8", func(t *testing.T) {
		r := newScreenRig(t, workload.KindDelta8)
		type at struct{ vlineBase, i uint64 }
		tails := map[uint32]at{}
		for vp := uint64(0); vp < 1<<14; vp++ {
			b := r.bounds(vp * vm.PageLines)
			for i := uint64(0); i < vm.PageLines; i += 8 {
				tails[b[i].Lo.Tail] = at{vp * vm.PageLines, i}
			}
		}
		found := 0
		for a := mem.LineAddr(0); found < 4; a++ {
			if a == 1<<22 {
				t.Fatalf("%d markers in a Delta8 tail bound by line %d, want 4", found, a)
			}
			for _, m := range []uint32{r.g.Marker2(a), r.g.Marker4(a)} {
				for _, hi := range []uint32{m, m - 1} {
					p, ok := tails[hi]
					if !ok || p.i != uint64(a)%vm.PageLines&^7 || !r.g.MayCollide(a, r.bounds(p.vlineBase)[uint64(a)%vm.PageLines]) {
						continue
					}
					r.check(t, a&^(vm.PageLines-1), p.vlineBase)
					found++
				}
			}
		}
	})
}
