// Package cache implements the set-associative writeback caches of the
// three-level hierarchy (Table I). Entries are tag-only: line data lives in
// the architectural store (internal/mem), which keeps the model fast while
// preserving everything PTMC needs — dirty bits, the 2-bit
// prior-compression-level tag (paper §IV-C "Handling Updates to Compressed
// Lines"), the prefetch bit Dynamic-PTMC samples, and per-line core IDs for
// per-core Dynamic-PTMC.
package cache

import (
	"fmt"
	"math/bits"

	"ptmc/internal/mem"
)

// Level is the compression level a line had when it was read from memory,
// stored in the 2 tag bits PTMC adds to the LLC.
type Level uint8

// Compression levels.
const (
	Uncompressed Level = iota // line resident at its own location
	Comp2                     // 2:1 — pair co-located at the pair base
	Comp4                     // 4:1 — quad co-located at the group base
)

func (l Level) String() string {
	switch l {
	case Uncompressed:
		return "none"
	case Comp2:
		return "2:1"
	case Comp4:
		return "4:1"
	default:
		return fmt.Sprintf("Level(%d)", uint8(l))
	}
}

// Entry is one cache line's bookkeeping.
type Entry struct {
	Tag      mem.LineAddr
	Valid    bool
	Dirty    bool
	Prefetch bool  // installed as a compression free-prefetch, not yet demanded
	Level    Level // compression level observed at fill time
	Core     uint8 // requesting core (per-core Dynamic-PTMC sampling)
}

// Config sizes a cache.
type Config struct {
	SizeBytes int
	Assoc     int
}

// Stats counts cache events.
type Stats struct {
	Hits        uint64
	Misses      uint64
	Evictions   uint64
	DirtyEvicts uint64
}

// HitRate returns Hits / (Hits + Misses).
func (s Stats) HitRate() float64 {
	t := s.Hits + s.Misses
	if t == 0 {
		return 0
	}
	return float64(s.Hits) / float64(t)
}

// Cache is a single set-associative, true-LRU, writeback cache indexed by
// physical line address. A set scan reads only the packed tag array — 4
// bytes per way, so a 16-way set is one 64-byte host cache line — and
// touches an entry only on a hit or to confirm a tag too wide to pack; an
// eviction from a full set scans the LRU stamps, 2 bytes per way in an
// array of their own. Only the cache writes an entry's Tag and Valid,
// which keeps the arrays in step.
type Cache struct {
	entries []Entry  // numSets * assoc, set-major
	tags    []uint32 // per entry: 0 if invalid, else packTag(Tag)
	// lru holds each entry's stamp from its set's clock, ticks, taken at
	// its last install or hit: LRU order is only ever compared within a
	// set. A clock about to wrap renumbers its set (renumber).
	lru     []uint16
	ticks   []uint16
	assoc   int
	numSets int
	setMask uint64
	setBits uint
	Stats   Stats
}

// wideTag is the packed tag of every line whose set-relative tag does not
// fit in 32 bits; a scan that matches it confirms on Entry.Tag.
const wideTag = ^uint32(0)

// CheckGeometry reports whether New accepts cfg: positive size and
// associativity, and SizeBytes/(64*Assoc) sets, a power of two.
func CheckGeometry(cfg Config) error {
	if cfg.Assoc <= 0 || cfg.SizeBytes <= 0 {
		return fmt.Errorf("cache: size and associativity must be positive")
	}
	lines := cfg.SizeBytes / mem.LineSize
	if lines%cfg.Assoc != 0 {
		return fmt.Errorf("cache: %d lines not divisible by assoc %d", lines, cfg.Assoc)
	}
	sets := lines / cfg.Assoc
	if sets == 0 || sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d must be a power of two", sets)
	}
	return nil
}

// New builds a cache; cfg must pass CheckGeometry.
func New(cfg Config) (*Cache, error) {
	if err := CheckGeometry(cfg); err != nil {
		return nil, err
	}
	lines := cfg.SizeBytes / mem.LineSize
	sets := lines / cfg.Assoc
	return &Cache{
		entries: make([]Entry, lines),
		tags:    make([]uint32, lines),
		lru:     make([]uint16, lines),
		ticks:   make([]uint16, sets),
		assoc:   cfg.Assoc,
		numSets: sets,
		setMask: uint64(sets - 1),
		setBits: uint(bits.TrailingZeros(uint(sets))),
	}, nil
}

// NumSets returns the number of sets (used for set sampling).
func (c *Cache) NumSets() int { return c.numSets }

// Assoc returns the associativity.
func (c *Cache) Assoc() int { return c.assoc }

// SetIndex returns the set an address maps to.
func (c *Cache) SetIndex(a mem.LineAddr) int { return int(uint64(a) & c.setMask) }

// packTag returns a's packed tag: its bits above the set index, plus one
// so that 0 can mark an invalid way.
func (c *Cache) packTag(a mem.LineAddr) uint32 {
	if t := uint64(a) >> c.setBits; t < uint64(wideTag-1) {
		return uint32(t) + 1
	}
	return wideTag
}

// touch stamps entry i, of set, as the set's most recently used.
func (c *Cache) touch(set, i int) {
	if c.ticks[set] == ^uint16(0) {
		c.renumber(set)
	}
	c.ticks[set]++
	c.lru[i] = c.ticks[set]
}

// renumber restamps set's valid ways 1..n in their LRU order and restarts
// its clock at n, so the order survives the clock's wrap exactly.
func (c *Cache) renumber(set int) {
	base := set * c.assoc
	stamps := c.lru[base : base+c.assoc]
	n := uint16(0)
	for {
		next := -1
		for i, t := range c.tags[base : base+c.assoc] {
			if t != 0 && stamps[i] > n && (next < 0 || stamps[i] < stamps[next]) {
				next = i
			}
		}
		if next < 0 {
			break
		}
		n++
		stamps[next] = n
	}
	c.ticks[set] = n
}

// find returns the position of a's entry, or -1 if a is not resident.
func (c *Cache) find(a mem.LineAddr) int {
	base := c.SetIndex(a) * c.assoc
	want := c.packTag(a)
	for i, t := range c.tags[base : base+c.assoc] {
		if t == want && (want != wideTag || c.entries[base+i].Tag == a) {
			return base + i
		}
	}
	return -1
}

// Lookup finds a line, updating LRU and hit/miss stats. The returned entry
// pointer is valid until the next Install in the same set and may be
// mutated by the caller (dirty/prefetch bits).
func (c *Cache) Lookup(a mem.LineAddr) (*Entry, bool) {
	i := c.find(a)
	if i < 0 {
		c.Stats.Misses++
		return nil, false
	}
	c.touch(c.SetIndex(a), i)
	c.Stats.Hits++
	return &c.entries[i], true
}

// Probe finds a line without perturbing LRU or stats (used by the memory
// controller to check group-neighbor residency).
func (c *Cache) Probe(a mem.LineAddr) (*Entry, bool) {
	if i := c.find(a); i >= 0 {
		return &c.entries[i], true
	}
	return nil, false
}

// Install fills a line, evicting the LRU victim if the set is full. It
// returns the victim (Valid=false if none) and a pointer to the new entry.
// Installing an already-present line refreshes it in place.
func (c *Cache) Install(a mem.LineAddr, e Entry) (victim Entry, slot *Entry) {
	set := c.SetIndex(a)
	base := set * c.assoc
	want := c.packTag(a)
	e.Tag = a
	e.Valid = true

	vic := -1 // the first invalid way
	for i, t := range c.tags[base : base+c.assoc] {
		if t == want && (want != wideTag || c.entries[base+i].Tag == a) {
			old := &c.entries[base+i]
			e.Dirty = e.Dirty || old.Dirty // never lose a dirty bit
			*old = e
			c.touch(set, base+i)
			return Entry{}, old
		}
		if t == 0 && vic < 0 {
			vic = i
		}
	}
	if vic < 0 {
		vic = 0 // full set: the least recently used way
		for i, l := range c.lru[base : base+c.assoc] {
			if l < c.lru[base+vic] {
				vic = i
			}
		}
		victim = c.entries[base+vic]
		c.Stats.Evictions++
		if victim.Dirty {
			c.Stats.DirtyEvicts++
		}
	}
	c.entries[base+vic] = e
	c.tags[base+vic] = want
	c.touch(set, base+vic)
	return victim, &c.entries[base+vic]
}

// Invalidate removes a line, returning its prior state (for ganged eviction
// the controller needs the dirty bit and compression tag).
func (c *Cache) Invalidate(a mem.LineAddr) (Entry, bool) {
	i := c.find(a)
	if i < 0 {
		return Entry{}, false
	}
	old := c.entries[i]
	c.entries[i] = Entry{}
	c.tags[i] = 0
	return old, true
}

// ForEachValid visits every valid entry (diagnostics and whole-cache
// verification in tests).
func (c *Cache) ForEachValid(f func(e *Entry)) {
	for i, t := range c.tags {
		if t != 0 {
			f(&c.entries[i])
		}
	}
}

// ValidCount returns the number of valid lines.
func (c *Cache) ValidCount() int {
	n := 0
	for _, t := range c.tags {
		if t != 0 {
			n++
		}
	}
	return n
}
