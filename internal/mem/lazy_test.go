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

func (c *countingFill) want(a LineAddr) []byte {
	out := make([]byte, LineSize)
	for i := range out {
		out[i] = byte(uint64(a) + uint64(i)*3 + 1)
	}
	return out
}

func TestLazyReadSynthesizesAndMemoizes(t *testing.T) {
	s := NewStore()
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
}

func TestLazyWriteBeforeReadSkipsSynthesis(t *testing.T) {
	s := NewStore()
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
}

func TestLazyWritePartialSynthesizesRest(t *testing.T) {
	s := NewStore()
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
}

func TestReadNoAllocKeepsSentinel(t *testing.T) {
	s := NewStore()
	cf := newCountingFill()
	s.SetLazyFill(cf.fill)
	s.MarkLazy(0)

	var scratch [LineSize]byte
	a := LineAddr(11)
	got := s.ReadNoAlloc(a, scratch[:])
	if !bytes.Equal(got, cf.want(a)) {
		t.Fatal("ReadNoAlloc must synthesize the lazy value")
	}
	if &got[0] != &scratch[0] {
		t.Error("sentinel-page ReadNoAlloc must return the caller's scratch")
	}
	// The page must still be the shared sentinel: a later ReadNoAlloc
	// synthesizes again instead of reading materialized storage.
	s.ReadNoAlloc(a, scratch[:])
	if cf.calls[a] != 2 {
		t.Errorf("fill ran %d times across two sentinel reads, want 2", cf.calls[a])
	}
	// And it must not allocate: that is its contract (integrity checks and
	// eviction gathers inspect pages that may never be stored to).
	if n := testing.AllocsPerRun(100, func() {
		s.ReadNoAlloc(a, scratch[:])
	}); n != 0 {
		t.Errorf("sentinel ReadNoAlloc allocates %.1f/op, want 0", n)
	}

	// After a write materializes the page, ReadNoAlloc reads (and
	// memoizes) real storage like Read.
	s.Write(a+1, make([]byte, LineSize))
	got = s.ReadNoAlloc(a, scratch[:])
	if &got[0] == &scratch[0] {
		t.Error("materialized-page ReadNoAlloc must alias internal storage")
	}
	before := cf.calls[a]
	s.ReadNoAlloc(a, scratch[:])
	if cf.calls[a] != before {
		t.Error("materialized-page ReadNoAlloc must memoize")
	}
}

func TestLazyGuards(t *testing.T) {
	s := NewStore()
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
	mustPanic("Slab on lazily-filled store", func() { s.Slab(0) })
}

// BenchmarkStoreLazyRead times the read path every first touch of a lazily
// initialized architectural page takes: ReadNoAlloc synthesizing a line
// through the fill callback into caller scratch, without materializing the
// page.
func BenchmarkStoreLazyRead(b *testing.B) {
	s := NewStore()
	s.SetLazyFill(func(a LineAddr, buf []byte) {
		binary.LittleEndian.PutUint64(buf, uint64(a))
	})
	var scratch [LineSize]byte
	for pn := 0; pn < 16; pn++ {
		s.MarkLazy(LineAddr(pn * SlabLines))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ReadNoAlloc(LineAddr(i%(16*SlabLines)), scratch[:])
	}
}
