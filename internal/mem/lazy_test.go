package mem

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// countingFill synthesizes a recognizable per-line pattern and counts
// invocations per address.
type countingFill struct {
	calls map[LineAddr]int
}

func newCountingFill() *countingFill { return &countingFill{calls: map[LineAddr]int{}} }

func (c *countingFill) fill(a LineAddr, buf []byte) {
	c.calls[a]++
	for i := range buf {
		buf[i] = byte(uint64(a) + uint64(i)*3 + 1)
	}
}

// numberings are the page numberings the store tests run under: the
// default identity, and a bijection of vm.System.Numbering's form — the
// low 22 bits of a page number xored and multiplied by an odd constant —
// which scatters neighboring pages across the page index.
var numberings = []struct {
	name string
	n    Numbering
}{
	{"identity", Numbering{}},
	{"vm-style", Numbering{Mask: 1<<22 - 1, Xor: 0x9E3779B97F4A7C15, Mult: 0xC2B2AE3D27D4EB4F}},
}

// eachNumbering runs test once per numbering, on a fresh store using it.
func eachNumbering(t *testing.T, test func(t *testing.T, s *Store)) {
	for _, nb := range numberings {
		t.Run(nb.name, func(t *testing.T) {
			s := NewStore()
			s.SetNumbering(nb.n)
			test(t, s)
		})
	}
}

func (c *countingFill) want(a LineAddr) []byte {
	out := make([]byte, LineSize)
	for i := range out {
		out[i] = byte(uint64(a) + uint64(i)*3 + 1)
	}
	return out
}

func TestLazyReadSynthesizesAndMemoizes(t *testing.T) {
	eachNumbering(t, func(t *testing.T, s *Store) {
		cf := newCountingFill()
		s.SetLazyFill(cf.fill)
		s.MarkLazy(0)

		if !s.Touched(3) {
			t.Error("lazy page must count as touched immediately")
		}
		a := LineAddr(5)
		if got := s.Read(a); !bytes.Equal(got, cf.want(a)) {
			t.Fatalf("lazy read = %x, want synthesized value", got[:8])
		}
		s.Read(a)
		s.Read(a)
		if cf.calls[a] != 1 {
			t.Errorf("fill ran %d times for one line, want 1 (memoized)", cf.calls[a])
		}
		// A different line of the now-materialized page still synthesizes.
		b := LineAddr(9)
		if got := s.Read(b); !bytes.Equal(got, cf.want(b)) {
			t.Fatalf("second lazy read wrong")
		}
		if cf.calls[b] != 1 {
			t.Errorf("fill for second line ran %d times, want 1", cf.calls[b])
		}
	})
}

func TestLazyWriteBeforeReadSkipsSynthesis(t *testing.T) {
	eachNumbering(t, func(t *testing.T, s *Store) {
		cf := newCountingFill()
		s.SetLazyFill(cf.fill)
		s.MarkLazy(0)

		val := make([]byte, LineSize)
		for i := range val {
			val[i] = 0xEE
		}
		s.Write(2, val)
		if got := s.Read(2); !bytes.Equal(got, val) {
			t.Fatal("written line must read back the written value")
		}
		if cf.calls[2] != 0 {
			t.Errorf("fill ran %d times for a written-first line, want 0", cf.calls[2])
		}
	})
}

func TestLazyWritePartialSynthesizesRest(t *testing.T) {
	eachNumbering(t, func(t *testing.T, s *Store) {
		cf := newCountingFill()
		s.SetLazyFill(cf.fill)
		s.MarkLazy(0)

		s.WritePartial(7, 4, []byte{1, 2, 3, 4})
		want := cf.want(7)
		copy(want[4:], []byte{1, 2, 3, 4})
		if got := s.Read(7); !bytes.Equal(got, want) {
			t.Fatal("partial write must land on the synthesized base value")
		}
		if cf.calls[7] != 1 {
			t.Errorf("fill ran %d times, want exactly 1 (before the partial)", cf.calls[7])
		}
	})
}

// TestReadNoAllocNeverMaterializes: ReadNoAlloc synthesizes an
// unmaterialized line of a lazy page into the caller's scratch every time,
// without allocating or storing it, whether or not other lines of the page
// are materialized; a materialized line it reads in place.
func TestReadNoAllocNeverMaterializes(t *testing.T) {
	eachNumbering(t, func(t *testing.T, s *Store) {
		cf := newCountingFill()
		s.SetLazyFill(cf.fill)
		s.MarkLazy(0)

		var scratch [LineSize]byte
		a := LineAddr(11)
		for round, other := range []LineAddr{0, 12} {
			if round > 0 {
				s.Write(other, make([]byte, LineSize)) // materialize a neighbour
			}
			before := cf.calls[a]
			got := s.ReadNoAlloc(a, scratch[:])
			if !bytes.Equal(got, cf.want(a)) {
				t.Fatal("ReadNoAlloc must synthesize the lazy value")
			}
			if &got[0] != &scratch[0] {
				t.Error("ReadNoAlloc of an unmaterialized line must return the caller's scratch")
			}
			s.ReadNoAlloc(a, scratch[:])
			if cf.calls[a] != before+2 {
				t.Errorf("round %d: fill ran %d times across two reads, want 2", round, cf.calls[a]-before)
			}
			if s.Materialized(a) {
				t.Fatalf("round %d: ReadNoAlloc materialized the line", round)
			}
			if n := testing.AllocsPerRun(100, func() {
				s.ReadNoAlloc(a, scratch[:])
			}); n != 0 {
				t.Errorf("round %d: ReadNoAlloc allocates %.1f/op, want 0", round, n)
			}
		}
		if s.MaterializedLines() != 1 {
			t.Errorf("MaterializedLines = %d, want 1 (the written neighbour)", s.MaterializedLines())
		}

		// Once Read materializes the line, ReadNoAlloc aliases its storage.
		stored := s.Read(a)
		got := s.ReadNoAlloc(a, scratch[:])
		if &got[0] == &scratch[0] || &got[0] != &stored[0] {
			t.Error("ReadNoAlloc of a materialized line must alias internal storage")
		}
	})
}

// TestLazyPagesStoreOnlyMaterializedLines: a lazily registered page
// counts in full toward the footprint and TouchedLines but stores only
// the lines read or written, and a non-lazy page's unwritten lines read
// zero without being stored.
func TestLazyPagesStoreOnlyMaterializedLines(t *testing.T) {
	eachNumbering(t, func(t *testing.T, s *Store) {
		cf := newCountingFill()
		s.SetLazyFill(cf.fill)
		for pn := 0; pn < 10; pn++ {
			s.MarkLazy(LineAddr(pn * PageLines))
		}
		s.Read(3)
		s.Read(3)
		s.Write(PageLines+5, make([]byte, LineSize))
		s.WritePartial(2*PageLines, 8, []byte{7})
		s.Write(100*PageLines, make([]byte, LineSize)) // a non-lazy page
		if !bytes.Equal(s.Read(100*PageLines+1), make([]byte, LineSize)) {
			t.Error("unwritten line of a non-lazy page must read zero")
		}
		if got := s.MaterializedLines(); got != 4 {
			t.Errorf("MaterializedLines = %d, want 4", got)
		}
		if got, want := s.FootprintBytes(), uint64(11*PageLines*LineSize); got != want {
			t.Errorf("FootprintBytes = %d, want %d (page-granular)", got, want)
		}
		touched := s.TouchedLines()
		if len(touched) != 11*PageLines {
			t.Errorf("TouchedLines = %d lines, want %d", len(touched), 11*PageLines)
		}
		for i := 1; i < len(touched); i++ {
			if touched[i] <= touched[i-1] {
				t.Fatal("TouchedLines not in ascending address order")
			}
		}
		for _, a := range []LineAddr{3, PageLines + 5, 2 * PageLines, 100 * PageLines} {
			if !s.Materialized(a) {
				t.Errorf("line %d not materialized", a)
			}
		}
		if s.Materialized(4) || s.Materialized(100*PageLines+1) {
			t.Error("unread lines must not be materialized")
		}
	})
}

// TestReadSliceSurvivesInserts: a slice Read returned keeps its value
// while every other line of the page materializes around it (growing the
// page's slot list through every capacity) and other pages fill the arena.
func TestReadSliceSurvivesInserts(t *testing.T) {
	eachNumbering(t, func(t *testing.T, s *Store) {
		cf := newCountingFill()
		s.SetLazyFill(cf.fill)
		s.MarkLazy(0)
		mid := s.Read(31)
		want := cf.want(31)
		line := make([]byte, LineSize)
		for i := 0; i < PageLines; i++ {
			if i == 31 {
				continue
			}
			line[0] = byte(i)
			s.Write(LineAddr(i), line)
			s.Write(LineAddr(PageLines*(i+1)+i), line) // another page, interleaved
		}
		if !bytes.Equal(mid, want) {
			t.Fatal("Read slice changed after inserts into the same page")
		}
		for i := 0; i < PageLines; i++ {
			if i != 31 && s.Read(LineAddr(i))[0] != byte(i) {
				t.Fatalf("line %d lost its value", i)
			}
		}
		// The slice aliases the line: a later Write shows through it.
		s.Write(31, line)
		if !bytes.Equal(mid, line) {
			t.Error("Read slice must alias the line's storage")
		}
	})
}

func TestLazyGuards(t *testing.T) {
	eachNumbering(t, func(t *testing.T, s *Store) {
		mustPanic := func(name string, f func()) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: want panic", name)
				}
			}()
			f()
		}
		mustPanic("MarkLazy without SetLazyFill", func() { s.MarkLazy(0) })
		s.SetLazyFill(func(a LineAddr, buf []byte) {})
		mustPanic("unaligned MarkLazy", func() { s.MarkLazy(3) })
	})
}

// BenchmarkStoreLazyRead times the inspection read of a line a lazily
// initialized page has never stored: ReadNoAlloc synthesizing it through
// the fill callback into caller scratch, without materializing it.
func BenchmarkStoreLazyRead(b *testing.B) {
	s := NewStore()
	s.SetLazyFill(func(a LineAddr, buf []byte) {
		binary.LittleEndian.PutUint64(buf, uint64(a))
	})
	var scratch [LineSize]byte
	for pn := 0; pn < 16; pn++ {
		s.MarkLazy(LineAddr(pn * PageLines))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ReadNoAlloc(LineAddr(i%(16*PageLines)), scratch[:])
	}
}

// TestNumberingsAreBijective: distinct page numbers — neighbors, and
// numbers far above the vm-style mask — get distinct numbers.
func TestNumberingsAreBijective(t *testing.T) {
	for _, nb := range numberings {
		seen := map[uint64]uint64{}
		for _, base := range []uint64{0, 1<<22 - 8, 1<<22 + 64, 1 << 40, 1<<58 - 16} {
			for pn := base; pn < base+16; pn++ {
				n := nb.n.Of(pn)
				if prev, dup := seen[n]; dup {
					t.Fatalf("%s: pages %#x and %#x share number %#x", nb.name, prev, pn, n)
				}
				seen[n] = pn
			}
		}
	}
}

// TestTouchedLinesAscendingUnderNumbering registers pages far apart in a
// shuffled order: TouchedLines lists every line of them in ascending
// address order whatever order the numbering files them in, and each
// page reads back what was written to it.
func TestTouchedLinesAscendingUnderNumbering(t *testing.T) {
	eachNumbering(t, func(t *testing.T, s *Store) {
		s.SetLazyFill(newCountingFill().fill)
		pages := []uint64{1 << 40, 3, 1<<22 + 1, 0, 1 << 22, 77, 1<<58 - 1, 1<<22 - 1}
		line := make([]byte, LineSize)
		for i, pn := range pages {
			if i%2 == 0 {
				s.MarkLazy(LineAddr(pn * PageLines))
				continue
			}
			line[0] = byte(i)
			s.Write(LineAddr(pn*PageLines+5), line)
		}
		touched := s.TouchedLines()
		if len(touched) != len(pages)*PageLines {
			t.Fatalf("TouchedLines has %d lines, want %d", len(touched), len(pages)*PageLines)
		}
		for i := 1; i < len(touched); i++ {
			if touched[i] <= touched[i-1] {
				t.Fatalf("TouchedLines not ascending at %d: %#x after %#x", i, touched[i], touched[i-1])
			}
		}
		for i, pn := range pages {
			if i%2 == 1 && s.Read(LineAddr(pn*PageLines + 5))[0] != byte(i) {
				t.Errorf("page %#x lost its line", pn)
			}
			if !s.Touched(LineAddr(pn*PageLines)) || s.Touched(LineAddr((pn^1<<30)*PageLines)) {
				t.Errorf("Touched wrong around page %#x", pn)
			}
		}
		mustPanic(t, func() { s.SetNumbering(Numbering{}) })
	})
}
