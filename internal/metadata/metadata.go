// Package metadata implements the conventional table-based Compression
// Status Information (CSI) machinery that prior TMC designs rely on
// (paper §II-C): a per-line 2-bit CSI table resident in a reserved region
// of physical memory, cached on chip in a dedicated metadata cache. Every
// CSI access that misses the cache costs a DRAM read, and dirty metadata
// evictions cost DRAM writes — the bandwidth bloat Figure 4 quantifies and
// PTMC's inline markers eliminate.
package metadata

import (
	"ptmc/internal/cache"
	"ptmc/internal/mem"
)

// LinesPerMetaLine: 2 bits of CSI per data line packs 256 data lines' CSI
// into one 64-byte metadata line — the spatial batching that gives the
// metadata cache its locality.
const LinesPerMetaLine = 256

// CacheAssoc is the metadata cache's associativity.
const CacheAssoc = 8

// Traffic describes the DRAM accesses a metadata operation requires.
type Traffic struct {
	ReadAddr  mem.LineAddr // metadata line to fetch
	NeedRead  bool
	WriteAddr mem.LineAddr // dirty metadata victim to write back
	NeedWrite bool
}

// Table is the CSI table plus its on-chip metadata cache.
type Table struct {
	base   mem.LineAddr // first line of the reserved metadata region
	csi    map[mem.LineAddr]cache.Level
	mcache *cache.Cache

	Lookups uint64
	Hits    uint64
	Misses  uint64
	Writes  uint64 // dirty metadata lines written back to DRAM
}

// New builds a table whose backing storage starts at base (inside the VM's
// reserved region) with a metadata cache of cacheBytes (the paper's
// baseline uses 32 KB).
func New(base mem.LineAddr, cacheBytes int) (*Table, error) {
	mc, err := cache.New(cache.Config{SizeBytes: cacheBytes, Assoc: CacheAssoc})
	if err != nil {
		return nil, err
	}
	return &Table{
		base:   base,
		csi:    make(map[mem.LineAddr]cache.Level),
		mcache: mc,
	}, nil
}

// MetaLineOf returns the metadata line holding addr's CSI.
func (t *Table) MetaLineOf(addr mem.LineAddr) mem.LineAddr {
	return t.base + addr/LinesPerMetaLine
}

// touch brings addr's metadata line into the metadata cache, reporting the
// DRAM traffic required; dirty is true when the caller will modify CSI.
func (t *Table) touch(addr mem.LineAddr, dirty bool) Traffic {
	t.Lookups++
	ml := t.MetaLineOf(addr)
	if e, hit := t.mcache.Lookup(ml); hit {
		t.Hits++
		e.Dirty = e.Dirty || dirty
		return Traffic{}
	}
	t.Misses++
	var tr Traffic
	tr.ReadAddr, tr.NeedRead = ml, true
	victim, _ := t.mcache.Install(ml, cache.Entry{Dirty: dirty})
	if victim.Valid && victim.Dirty {
		t.Writes++
		tr.WriteAddr, tr.NeedWrite = victim.Tag, true
	}
	return tr
}

// Touch models one metadata-cache access to addr's CSI line without
// reading or changing a stored level, returning the DRAM traffic it costs;
// dirty marks the cached metadata line modified. Schemes whose per-line
// metadata payload does not fit the 2-bit CSI encoding (MemZip's 1-8 beat
// burst lengths) use it to charge table traffic while keeping the actual
// value in a dedicated store.
func (t *Table) Touch(addr mem.LineAddr, dirty bool) Traffic {
	return t.touch(addr, dirty)
}

// Lookup returns addr's current compression level and the DRAM traffic the
// metadata access costs.
func (t *Table) Lookup(addr mem.LineAddr) (cache.Level, Traffic) {
	tr := t.touch(addr, false)
	return t.csi[addr], tr
}

// Update sets addr's compression level, dirtying the cached metadata line.
func (t *Table) Update(addr mem.LineAddr, level cache.Level) Traffic {
	tr := t.touch(addr, true)
	if level == cache.Uncompressed {
		delete(t.csi, addr)
	} else {
		t.csi[addr] = level
	}
	return tr
}

// Peek reads the CSI without modeling any cache or DRAM activity
// (verification only).
func (t *Table) Peek(addr mem.LineAddr) cache.Level { return t.csi[addr] }

// HitRate returns the metadata-cache hit rate (Figure 9's baseline curve).
func (t *Table) HitRate() float64 {
	if t.Lookups == 0 {
		return 0
	}
	return float64(t.Hits) / float64(t.Lookups)
}
