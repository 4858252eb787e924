package vm

import (
	"testing"

	"ptmc/internal/mem"
)

func TestPageCountValidation(t *testing.T) {
	if _, err := New(3<<30, 1, 0, 0); err == nil {
		t.Error("3 GB (non power-of-two pages) should be rejected")
	}
	if _, err := New(1<<20, 1, 0, 2<<20); err == nil {
		t.Error("reservation larger than memory should be rejected")
	}
	if _, err := New(16<<30, 8, 42, 0); err != nil {
		t.Errorf("16 GB should validate: %v", err)
	}
}

func TestSameLineSameTranslation(t *testing.T) {
	s, _ := New(1<<24, 1, 1, 0)
	a1, _, err := s.Translate(0, 0x1234)
	if err != nil {
		t.Fatal(err)
	}
	a2, _, _ := s.Translate(0, 0x1234)
	if a1 != a2 {
		t.Error("repeat translation must be stable")
	}
	// Same line, different byte offset.
	a3, _, _ := s.Translate(0, 0x1234+1)
	if a1 != a3 {
		t.Error("offsets within a line must map to the same line")
	}
}

func TestIntraPageLinesStayAdjacent(t *testing.T) {
	// PTMC group geometry depends on virtual adjacency within a page
	// surviving translation.
	s, _ := New(1<<24, 1, 7, 0)
	base := uint64(0x40000) // page-aligned
	a0, _, _ := s.Translate(0, base)
	for i := uint64(1); i < PageLines; i++ {
		ai, _, _ := s.Translate(0, base+i*64)
		if ai != a0+mem.LineAddr(i) {
			t.Fatalf("line %d not adjacent: %d vs %d", i, ai, a0)
		}
	}
}

func TestCoresGetDistinctPages(t *testing.T) {
	s, _ := New(1<<24, 8, 3, 0)
	seen := map[mem.LineAddr]int{}
	for core := 0; core < 8; core++ {
		a, _, err := s.Translate(core, 0x8000)
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := seen[a]; dup {
			t.Errorf("cores %d and %d share physical line %d", prev, core, a)
		}
		seen[a] = core
	}
	if s.AllocatedPages() != 8 {
		t.Errorf("allocated = %d, want 8", s.AllocatedPages())
	}
}

func TestDistinctVPagesDistinctPPages(t *testing.T) {
	s, _ := New(1<<26, 1, 9, 0)
	seen := map[mem.LineAddr]bool{}
	for v := uint64(0); v < 1000; v++ {
		a, _, err := s.Translate(0, v<<PageShift)
		if err != nil {
			t.Fatal(err)
		}
		page := a >> (PageShift - 6)
		if seen[page] {
			t.Fatalf("physical page %d allocated twice", page)
		}
		seen[page] = true
	}
}

func TestOutOfMemory(t *testing.T) {
	s, _ := New(1<<16, 1, 0, 0) // 16 pages
	for v := uint64(0); v < 16; v++ {
		if _, _, err := s.Translate(0, v<<PageShift); err != nil {
			t.Fatalf("page %d: %v", v, err)
		}
	}
	if _, _, err := s.Translate(0, 16<<PageShift); err == nil {
		t.Error("17th page should fail on 16-page memory")
	}
}

func TestReservedRegionNeverAllocated(t *testing.T) {
	s, _ := New(1<<20, 1, 5, 64<<10) // 256 pages, 16 reserved
	limit := s.ReservedBase()
	for v := uint64(0); v < 240; v++ {
		a, _, err := s.Translate(0, v<<PageShift)
		if err != nil {
			t.Fatal(err)
		}
		if a >= limit {
			t.Fatalf("data page allocated inside reserved region: %d >= %d", a, limit)
		}
	}
	if _, _, err := s.Translate(0, 240<<PageShift); err == nil {
		t.Error("allocation beyond data region should fail")
	}
}

func TestDeterminismAcrossInstances(t *testing.T) {
	s1, _ := New(1<<24, 2, 11, 0)
	s2, _ := New(1<<24, 2, 11, 0)
	for v := uint64(0); v < 100; v++ {
		a1, _, _ := s1.Translate(int(v%2), v<<PageShift)
		a2, _, _ := s2.Translate(int(v%2), v<<PageShift)
		if a1 != a2 {
			t.Fatal("same seed must give same translations")
		}
	}
	s3, _ := New(1<<24, 2, 12, 0)
	diff := false
	for v := uint64(0); v < 100; v++ {
		a1, _, _ := s1.Translate(int(v%2), v<<PageShift)
		a3, _, _ := s3.Translate(int(v%2), v<<PageShift)
		if a1 != a3 {
			diff = true
		}
	}
	if !diff {
		t.Error("different seeds should permute pages differently")
	}
}

func TestFootprintAndTotals(t *testing.T) {
	s, _ := New(1<<24, 1, 0, 0)
	s.Translate(0, 0)
	s.Translate(0, 1<<PageShift)
	if s.FootprintBytes() != 2<<PageShift {
		t.Errorf("footprint = %d", s.FootprintBytes())
	}
	if s.TotalLines() != (1<<24)/64 {
		t.Errorf("total lines = %d", s.TotalLines())
	}
}

// TestPageIndexInvertsPermute checks the dense numbering: PageIndex
// undoes permute for every allocation index of a small memory, and for a
// sample of indices of a 16 GB one, under several seeds; and Numbering,
// its extension to every page number, is still one-to-one above the
// physical page space.
func TestPageIndexInvertsPermute(t *testing.T) {
	for _, seed := range []int64{0, 1, 42, -7} {
		small, err := New(1<<22, 1, seed, 0) // 1024 pages
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[uint64]bool, small.totalPages)
		for i := uint64(0); i < small.totalPages; i++ {
			p := small.permute(i)
			if got := small.PageIndex(p); got != i {
				t.Fatalf("seed %d: PageIndex(permute(%d)) = %d", seed, i, got)
			}
			seen[p] = true
		}
		if uint64(len(seen)) != small.totalPages {
			t.Fatalf("seed %d: permute hit %d of %d pages", seed, len(seen), small.totalPages)
		}

		big, err := New(16<<30, 8, seed, 16<<30/256)
		if err != nil {
			t.Fatal(err)
		}
		for k := uint64(0); k < 100_000; k++ {
			i := k*k*2654435761 + k*977 // spread over the whole index space
			i &= big.totalPages - 1
			if got := big.PageIndex(big.permute(i)); got != i {
				t.Fatalf("seed %d, 16 GB: PageIndex(permute(%d)) = %d", seed, i, got)
			}
		}
		n := big.Numbering()
		for _, pn := range []uint64{big.totalPages, big.totalPages + 5, 1 << 40, 1<<58 - 1} {
			if got := n.Of(pn); got&^(big.totalPages-1) != pn&^(big.totalPages-1) {
				t.Errorf("seed %d: Numbering.Of(%#x) = %#x changed the bits above the page space", seed, pn, got)
			}
		}
	}
}

// TestPageIndexIsDense: translations hand out pages whose indices are at
// most the pages allocated plus the few skipped for the reserved region.
func TestPageIndexIsDense(t *testing.T) {
	s, err := New(1<<30, 2, 5, 1<<30/256)
	if err != nil {
		t.Fatal(err)
	}
	var maxIdx uint64
	for v := uint64(0); v < 3000; v++ {
		a, _, err := s.Translate(int(v%2), v<<PageShift)
		if err != nil {
			t.Fatal(err)
		}
		if i := s.PageIndex(uint64(a) / PageLines); i > maxIdx {
			maxIdx = i
		}
	}
	if maxIdx >= s.nextIdx || s.nextIdx > s.AllocatedPages()+s.AllocatedPages()/16 {
		t.Errorf("max page index %d, next index %d, for %d pages allocated", maxIdx, s.nextIdx, s.AllocatedPages())
	}
}

// traceVAddrs is a trace-style source's address set: pages near 0, near
// 2^40 and near 2^63 — trace.Replay passes any 64-bit vaddr through.
var traceVAddrs = func() []uint64 {
	var out []uint64
	for _, base := range []uint64{0, 1 << 40, 1 << 63, ^uint64(0) - 8<<PageShift} {
		for p := uint64(0); p < 8; p++ {
			out = append(out, base+p<<PageShift+0x40*p)
		}
	}
	return out
}()

// TestTraceVAddrsTranslate: every core translates the far-flung addresses
// stably, line-exact, and to pages no other (core, page) got.
func TestTraceVAddrsTranslate(t *testing.T) {
	const cores = 3
	s, err := New(1<<26, cores, 9, 0)
	if err != nil {
		t.Fatal(err)
	}
	owner := map[uint64][2]uint64{} // ppage -> (core, vpage)
	for core := 0; core < cores; core++ {
		for _, v := range traceVAddrs {
			a, allocated, err := s.Translate(core, v)
			if err != nil {
				t.Fatal(err)
			}
			if !allocated {
				t.Fatalf("core %d: first touch of %#x did not allocate", core, v)
			}
			if uint64(a)%PageLines != (v>>6)%PageLines {
				t.Fatalf("core %d: %#x landed on line %d of its page", core, v, uint64(a)%PageLines)
			}
			pp := uint64(a) / PageLines
			if o, dup := owner[pp]; dup {
				t.Fatalf("core %d vpage %#x shares physical page %d with core %d vpage %#x", core, v>>PageShift, pp, o[0], o[1])
			}
			owner[pp] = [2]uint64{uint64(core), v >> PageShift}
		}
		for _, v := range traceVAddrs {
			a, allocated, _ := s.Translate(core, v)
			if allocated || owner[uint64(a)/PageLines] != [2]uint64{uint64(core), v >> PageShift} {
				t.Fatalf("core %d: retranslating %#x gave page %d (allocated %v)", core, v, uint64(a)/PageLines, allocated)
			}
		}
	}
}

// TestPageTableSizedByTouchedPages: a core's page table over the
// far-flung trace addresses holds a few nodes per touched page, however
// large the addresses — 32 pages, not 2^52 virtual pages' worth.
func TestPageTableSizedByTouchedPages(t *testing.T) {
	s, err := New(1<<26, 1, 9, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range traceVAddrs {
		if _, _, err := s.Translate(0, v); err != nil {
			t.Fatal(err)
		}
	}
	const levels, nodeBytes = 8, 1 << 10 // 64-bit keys, 8 bits a level
	max := 2 * (1 + len(traceVAddrs)*levels) * nodeBytes
	if got := s.tables[0].Bytes(); got == 0 || got > max {
		t.Errorf("page table of %d touched pages takes %d bytes, want at most %d", len(traceVAddrs), got, max)
	}
	t.Logf("%d touched pages: %d table bytes", len(traceVAddrs), s.tables[0].Bytes())
}
