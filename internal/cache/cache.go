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
	lru      uint64
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
// physical line address.
type Cache struct {
	entries []Entry // numSets * assoc, set-major
	assoc   int
	numSets int
	setMask uint64
	tick    uint64
	Stats   Stats
}

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
		assoc:   cfg.Assoc,
		numSets: sets,
		setMask: uint64(sets - 1),
	}, nil
}

// NumSets returns the number of sets (used for set sampling).
func (c *Cache) NumSets() int { return c.numSets }

// Assoc returns the associativity.
func (c *Cache) Assoc() int { return c.assoc }

// SetIndex returns the set an address maps to.
func (c *Cache) SetIndex(a mem.LineAddr) int { return int(uint64(a) & c.setMask) }

func (c *Cache) set(a mem.LineAddr) []Entry {
	i := c.SetIndex(a) * c.assoc
	return c.entries[i : i+c.assoc]
}

// Lookup finds a line, updating LRU and hit/miss stats. The returned entry
// pointer is valid until the next Install in the same set and may be
// mutated by the caller (dirty/prefetch bits).
func (c *Cache) Lookup(a mem.LineAddr) (*Entry, bool) {
	set := c.set(a)
	for i := range set {
		if set[i].Valid && set[i].Tag == a {
			c.tick++
			set[i].lru = c.tick
			c.Stats.Hits++
			return &set[i], true
		}
	}
	c.Stats.Misses++
	return nil, false
}

// Probe finds a line without perturbing LRU or stats (used by the memory
// controller to check group-neighbor residency).
func (c *Cache) Probe(a mem.LineAddr) (*Entry, bool) {
	set := c.set(a)
	for i := range set {
		if set[i].Valid && set[i].Tag == a {
			return &set[i], true
		}
	}
	return nil, false
}

// Install fills a line, evicting the LRU victim if the set is full. It
// returns the victim (Valid=false if none) and a pointer to the new entry.
// Installing an already-present line refreshes it in place.
func (c *Cache) Install(a mem.LineAddr, e Entry) (victim Entry, slot *Entry) {
	set := c.set(a)
	c.tick++
	e.Tag = a
	e.Valid = true
	e.lru = c.tick

	vic := -1
	for i := range set {
		if set[i].Valid && set[i].Tag == a {
			e.Dirty = e.Dirty || set[i].Dirty // never lose a dirty bit
			set[i] = e
			return Entry{}, &set[i]
		}
		if !set[i].Valid {
			if vic == -1 || set[vic].Valid {
				vic = i
			}
			continue
		}
		if vic == -1 || (set[vic].Valid && set[i].lru < set[vic].lru) {
			vic = i
		}
	}
	victim = set[vic]
	if victim.Valid {
		c.Stats.Evictions++
		if victim.Dirty {
			c.Stats.DirtyEvicts++
		}
	} else {
		victim = Entry{}
	}
	set[vic] = e
	return victim, &set[vic]
}

// Invalidate removes a line, returning its prior state (for ganged eviction
// the controller needs the dirty bit and compression tag).
func (c *Cache) Invalidate(a mem.LineAddr) (Entry, bool) {
	set := c.set(a)
	for i := range set {
		if set[i].Valid && set[i].Tag == a {
			old := set[i]
			set[i] = Entry{}
			return old, true
		}
	}
	return Entry{}, false
}

// ForEachValid visits every valid entry (diagnostics and whole-cache
// verification in tests).
func (c *Cache) ForEachValid(f func(e *Entry)) {
	for i := range c.entries {
		if c.entries[i].Valid {
			f(&c.entries[i])
		}
	}
}

// ValidCount returns the number of valid lines.
func (c *Cache) ValidCount() int {
	n := 0
	for i := range c.entries {
		if c.entries[i].Valid {
			n++
		}
	}
	return n
}
