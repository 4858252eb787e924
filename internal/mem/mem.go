// Package mem provides the sparse physical-memory backing stores of the
// simulator. Two stores exist per system:
//
//   - the DRAM image: the bytes actually resident in memory, including
//     compressed groups, inline markers, inverted lines, and Invalid-Line
//     markers left behind by relocation;
//   - the architectural store: the last value written to every line, i.e.
//     the values a correct machine must observe.
//
// Keeping both lets the test suite assert, at any instant, that decoding
// the DRAM image reproduces the architectural contents — the paper's
// correctness argument for inline metadata, made executable.
//
// Both stores are sparse at line granularity. A page is registered on its
// first Write or by MarkLazy, but only the lines that were written or read
// are stored ("materialized"). An unmaterialized line of a lazily filled
// page (MarkLazy) holds the value the store's fill callback synthesizes for
// it; any other unmaterialized line reads as zero. The simulator registers
// every first-touched page lazily in both stores, because a line's value is
// a pure function of its identity and its store count: the image stores
// only the lines the controller writes, and the architectural store, whose
// fill synthesizes each line at its current count, stores none.
package mem

import (
	"math/bits"
	"sort"

	"ptmc/internal/radix"
)

// LineSize is the number of bytes per cache line / memory burst.
const LineSize = 64

// LineAddr is a physical line address: the physical byte address >> 6.
type LineAddr uint64

// PageLines is the number of 64-byte lines in one 4 KB page of the store:
// the unit MarkLazy registers and FootprintBytes and TouchedLines count in
// (an allocation unit, unrelated to the OS page size used by internal/vm,
// which happens to match).
const PageLines = 64

// page is one registered page. Its materialized lines live in the store's
// line arena, and its slot list (in Store.slots, from off) holds their
// arena numbers. A sparse page ranks them by line index, so line i's slot
// sits at rank popcount(mask & (1<<i - 1)) and the list takes four bytes
// per stored line; once a page stores more than maxRankedLines, the list
// becomes a direct table indexed by line, so a dense page inserts without
// shifting. The struct holds no pointers, which keeps the page table out
// of the garbage collector's scan.
type page struct {
	mask uint64 // bit i set: line i is materialized
	off  uint32 // start of the slot list in Store.slots
	cap  uint8  // 0 (no list yet), a ranked list's capacity, or PageLines (direct)
	lazy bool   // MarkLazy: unmaterialized lines synthesize through fill
}

// Ranked slot lists start at firstListCap entries and double up to
// maxRankedLines; the next growth makes the list direct.
const (
	firstListCap   = 4
	maxRankedLines = 16
)

// arenaChunkLines is the number of lines one arena chunk holds.
const arenaChunkLines = 256

// arenaChunk is a fixed block of line storage. Chunks are never freed or
// moved, so a line's bytes stay put once materialized.
type arenaChunk [arenaChunkLines][LineSize]byte

// Numbering is a bijection over page numbers: Of(pn) is the number a
// store files page pn under. Mask must be 2^k-1 and Mult odd; the low k
// bits of a page number are xored with Xor and multiplied by Mult modulo
// 2^k, and the bits above pass through. The zero Numbering is the
// identity. The simulator gives its stores the inverse of the VM's
// first-touch page permutation (vm.System.Numbering), which files each
// page under its allocation index, so the page index stays shallow and
// as dense as the footprint.
type Numbering struct{ Mask, Xor, Mult uint64 }

// Of returns the number page pn is filed under.
func (n Numbering) Of(pn uint64) uint64 {
	return pn&^n.Mask | (pn^n.Xor)&n.Mask*n.Mult&n.Mask
}

// Store is a sparse 64-byte-line-granular memory. Untouched lines read as
// zero. Store is not goroutine-safe (the simulator is single-threaded by
// design — determinism is a tested invariant).
type Store struct {
	// index maps a page's number (numbering.Of of its page number) to
	// its position in pages, plus one. It is a radix table, so it holds
	// any page number; a dense numbering keeps it small and shallow.
	index     radix.Table
	numbering Numbering
	pages     []page
	pns       []uint64 // page number of pages[i] (TouchedLines)

	// slots backs every page's slot list. A ranked list that outgrows its
	// capacity moves to a larger block, and its old block goes on the
	// free list of its size (indexed by log2 of the capacity) for the next
	// page that grows into it.
	slots []uint32
	free  [5][]uint32 // log2(maxRankedLines)+1 sizes

	// arena holds the materialized lines, numbered in materialization
	// order; lines is how many are in use.
	arena []*arenaChunk
	lines uint32

	// fill, when set, synthesizes the value of one unmaterialized line of
	// a page registered by MarkLazy. It must write exactly LineSize bytes.
	fill func(a LineAddr, buf []byte)
}

// NewStore returns an empty sparse store that files pages under their
// page numbers (the identity Numbering).
func NewStore() *Store { return &Store{} }

// SetNumbering files pages under n.Of(page number) instead. It must be
// called before the first page is registered.
func (s *Store) SetNumbering(n Numbering) {
	if len(s.pages) > 0 {
		panic("mem: SetNumbering after pages were registered")
	}
	s.numbering = n
}

var zeroLine [LineSize]byte

// lookup returns the registered page holding line a and a's index in it,
// or a nil page if the page is unregistered.
func (s *Store) lookup(a LineAddr) (*page, uint64) {
	pi := s.index.Get(s.numbering.Of(uint64(a) / PageLines))
	if pi == 0 {
		return nil, 0
	}
	return &s.pages[pi-1], uint64(a) % PageLines
}

// register returns the page holding line a, registering it (non-lazy,
// nothing materialized) if needed, and a's index in it.
func (s *Store) register(a LineAddr) (*page, uint64) {
	pn := uint64(a) / PageLines
	num := s.numbering.Of(pn)
	pi := s.index.Get(num)
	if pi == 0 {
		s.pages = append(s.pages, page{})
		s.pns = append(s.pns, pn)
		pi = uint32(len(s.pages))
		s.index.Set(num, pi)
	}
	return &s.pages[pi-1], uint64(a) % PageLines
}

// slot returns the position of materialized line i's arena number in
// s.slots, or of the line about to be inserted there.
func (p *page) slot(i uint64) uint32 {
	if p.cap == PageLines {
		return p.off + uint32(i)
	}
	return p.off + uint32(bits.OnesCount64(p.mask&(1<<i-1)))
}

// line returns the storage of arena line n.
func (s *Store) line(n uint32) []byte {
	return s.arena[n/arenaChunkLines][n%arenaChunkLines][:]
}

// storage returns the storage of line i of p, materializing it (zeroed,
// fresh true) if it has none yet.
func (s *Store) storage(p *page, i uint64) (l []byte, fresh bool) {
	if p.mask&(1<<i) != 0 {
		return s.line(s.slots[p.slot(i)]), false
	}
	return s.materialize(p, i), true
}

// materialize gives unmaterialized line i of p its own arena storage,
// zeroed, and returns it.
func (s *Store) materialize(p *page, i uint64) []byte {
	n := uint32(bits.OnesCount64(p.mask))
	if n == uint32(p.cap) {
		s.growList(p, n)
	}
	if s.lines%arenaChunkLines == 0 {
		s.arena = append(s.arena, new(arenaChunk))
	}
	ln := s.lines
	s.lines++
	at := p.slot(i)
	if p.cap != PageLines {
		end := p.off + n
		copy(s.slots[at+1:end+1], s.slots[at:end])
	}
	s.slots[at] = ln
	p.mask |= 1 << i
	return s.line(ln)
}

// growList moves p's full slot list (n entries) to a larger block: the
// next ranked capacity, or a direct table past maxRankedLines.
func (s *Store) growList(p *page, n uint32) {
	c := uint32(firstListCap)
	if p.cap > 0 {
		c = 2 * uint32(p.cap)
	}
	if c > maxRankedLines {
		c = PageLines
	}
	var off uint32
	if cls := bits.TrailingZeros32(c); c != PageLines && len(s.free[cls]) > 0 {
		f := s.free[cls]
		off = f[len(f)-1]
		s.free[cls] = f[:len(f)-1]
	} else {
		off = uint32(len(s.slots))
		if len(s.slots)+int(c) > cap(s.slots) {
			// Double explicitly: append grows a large slice by only a
			// quarter at a time, copying it over and over.
			grown := make([]uint32, len(s.slots), 2*cap(s.slots)+PageLines)
			copy(grown, s.slots)
			s.slots = grown
		}
		s.slots = s.slots[:off+c]
	}
	if c == PageLines {
		// Scatter the ranked entries to their lines' positions.
		m := p.mask
		for k := p.off; m != 0; k++ {
			s.slots[off+uint32(bits.TrailingZeros64(m))] = s.slots[k]
			m &= m - 1
		}
	} else {
		copy(s.slots[off:off+n], s.slots[p.off:p.off+n])
	}
	if p.cap > 0 {
		old := bits.TrailingZeros8(p.cap)
		s.free[old] = append(s.free[old], p.off)
	}
	p.off, p.cap = off, uint8(c)
}

// Read returns the contents of line a. The returned slice aliases internal
// storage for materialized lines and must not be modified; use Write to
// mutate. It stays valid, and keeps showing the line's current value,
// across later materializations in the same page. An unmaterialized line
// of a lazily filled page is synthesized and materialized here, so a second
// Read returns the same storage.
func (s *Store) Read(a LineAddr) []byte {
	p, i := s.lookup(a)
	if p == nil {
		return zeroLine[:]
	}
	if p.mask&(1<<i) != 0 {
		return s.line(s.slots[p.slot(i)])
	}
	if !p.lazy {
		return zeroLine[:]
	}
	l := s.materialize(p, i)
	s.fill(a, l)
	return l
}

// ReadNoAlloc is Read for whole-memory sweeps, integrity checks and
// eviction planning: it never materializes a line. For an unmaterialized
// line of a lazily filled page it synthesizes the value into scratch (which
// must be LineSize bytes) and returns scratch, valid until scratch is
// reused; a materialized line aliases internal storage exactly like Read.
func (s *Store) ReadNoAlloc(a LineAddr, scratch []byte) []byte {
	p, i := s.lookup(a)
	if p == nil {
		return zeroLine[:]
	}
	if p.mask&(1<<i) != 0 {
		return s.line(s.slots[p.slot(i)])
	}
	if !p.lazy {
		return zeroLine[:]
	}
	s.fill(a, scratch)
	return scratch
}

// Write replaces the contents of line a with data (which must be 64 bytes).
func (s *Store) Write(a LineAddr, data []byte) {
	if len(data) != LineSize {
		panic("mem: Write needs a 64-byte line")
	}
	p, i := s.register(a)
	l, _ := s.storage(p, i)
	copy(l, data)
}

// WritePartial overwrites size bytes at byte offset off within line a. The
// untouched rest of the line keeps its value: the synthesized one, for an
// unmaterialized line of a lazily filled page.
func (s *Store) WritePartial(a LineAddr, off int, data []byte) {
	if off < 0 || off+len(data) > LineSize {
		panic("mem: WritePartial out of range")
	}
	p, i := s.register(a)
	l, fresh := s.storage(p, i)
	if fresh && p.lazy {
		s.fill(a, l)
	}
	copy(l[off:], data)
}

// Touched reports whether line a's page is registered: written to, or
// registered by MarkLazy. It says nothing about line a itself.
func (s *Store) Touched(a LineAddr) bool {
	p, _ := s.lookup(a)
	return p != nil
}

// Materialized reports whether line a has its own storage: it was written,
// or read through Read on a lazily filled page. An unmaterialized line
// holds its fill value (lazy pages) or zero.
func (s *Store) Materialized(a LineAddr) bool {
	p, i := s.lookup(a)
	return p != nil && p.mask&(1<<i) != 0
}

// MaterializedLines returns how many lines have their own storage.
func (s *Store) MaterializedLines() int { return int(s.lines) }

// TouchedLines returns every line address in registered pages, in
// ascending address order. The sort matters: whole-memory operations
// (LIT-overflow re-encoding, image-soundness property checks, fault-campaign
// candidate selection) must be deterministic so a run replays from its seed.
func (s *Store) TouchedLines() []LineAddr {
	pns := append([]uint64(nil), s.pns...)
	sort.Slice(pns, func(i, j int) bool { return pns[i] < pns[j] })
	out := make([]LineAddr, 0, len(pns)*PageLines)
	for _, pn := range pns {
		for i := uint64(0); i < PageLines; i++ {
			out = append(out, LineAddr(pn*PageLines+i))
		}
	}
	return out
}

// FootprintBytes returns the number of bytes of registered pages: the
// memory the store represents, not what it holds (see MaterializedLines).
func (s *Store) FootprintBytes() uint64 {
	return uint64(len(s.pages)) * PageLines * LineSize
}

// SetLazyFill installs the synthesis callback for lazily filled pages: the
// callback receives a line address within a page registered by MarkLazy
// and must write that line's value (LineSize bytes) into buf. It runs on
// the goroutine that owns the Store, at a Read (or ReadNoAlloc, or
// WritePartial) of a line that has no storage of its own.
func (s *Store) SetLazyFill(fill func(a LineAddr, buf []byte)) { s.fill = fill }

// MarkLazy registers the page at base — which must be page-aligned — as
// lazily filled: it is Touched and counts toward FootprintBytes at once,
// but stores nothing, and each of its lines that is read before it is
// written reads as the fill callback's value. Lines it already stores
// keep their contents. The simulator uses this for first-touch page
// initialization, whose contents are a pure function of each line's
// identity until the first store to that line. Requires SetLazyFill.
func (s *Store) MarkLazy(base LineAddr) {
	if uint64(base)%PageLines != 0 {
		panic("mem: MarkLazy base must be page-aligned")
	}
	if s.fill == nil {
		panic("mem: MarkLazy without SetLazyFill")
	}
	p, _ := s.register(base)
	p.lazy = true
}
