// Package vm models the virtual memory system the paper assumes: per-core
// page tables with first-touch physical allocation, so that the memory
// accesses of different cores never map to the same physical page (§III-A).
// No other OS support exists — PTMC is OS-transparent by design.
package vm

import (
	"fmt"

	"ptmc/internal/mem"
	"ptmc/internal/radix"
)

// Page geometry: 4 KB pages of 64 lines.
const (
	PageShift = 12
	PageLines = 1 << (PageShift - 6)
)

// System is the address-translation layer. Physical pages are handed out
// first-touch in a seeded pseudo-random (but deterministic) order so that
// DRAM bank/row mappings see realistic scatter. Allocation index i gets
// physical page permute(i); PageIndex inverts that, so a page's index is a
// dense number any per-page table can be a slice over.
type System struct {
	totalPages    uint64 // physical pages available to data
	reservedPages uint64 // carved out at the top (metadata table region)
	nextIdx       uint64
	mult          uint64 // odd multiplier => bijection over power-of-two space
	multInv       uint64 // mult's inverse modulo 2^64
	xor           uint64
	// tables are the per-core page tables, vpage -> ppage+1. A radix
	// table's memory is bounded by the pages a core touched, whatever
	// the magnitude of its virtual addresses (a trace replays any 64-bit
	// vaddr).
	tables    []radix.Table
	allocated uint64
}

// New creates a VM for a physical memory of memBytes (must make the page
// count a power of two, e.g. 16 GB), cores page tables, and a deterministic
// seed. reservedBytes are carved from the top of physical memory and never
// allocated (the table-based baseline keeps its metadata there).
func New(memBytes uint64, cores int, seed int64, reservedBytes uint64) (*System, error) {
	pages := memBytes >> PageShift
	if pages == 0 || pages&(pages-1) != 0 {
		return nil, fmt.Errorf("vm: page count %d must be a power of two", pages)
	}
	reserved := (reservedBytes + (1 << PageShift) - 1) >> PageShift
	if reserved >= pages {
		return nil, fmt.Errorf("vm: reservation %d pages exceeds memory %d", reserved, pages)
	}
	if pages >= 1<<32 {
		return nil, fmt.Errorf("vm: %d pages exceed the page tables' 32-bit page numbers", pages)
	}
	s := &System{
		totalPages:    pages,
		reservedPages: reserved,
		mult:          uint64(seed)*2 + 2654435761, // always odd
		xor:           uint64(seed) * 0x9E3779B97F4A7C15,
		tables:        make([]radix.Table, cores),
	}
	s.multInv = inverse(s.mult)
	return s, nil
}

// inverse returns the multiplicative inverse of odd m modulo 2^64 by
// Newton's iteration: each step doubles the number of correct low bits,
// and m is its own inverse modulo 8.
func inverse(m uint64) uint64 {
	x := m
	for i := 0; i < 5; i++ {
		x *= 2 - m*x
	}
	return x
}

// permute maps allocation index i to a physical page, a bijection over the
// power-of-two page space; pages landing in the reserved region are skipped
// by the caller.
func (s *System) permute(i uint64) uint64 {
	return (i*s.mult ^ s.xor) & (s.totalPages - 1)
}

// PageIndex is permute's inverse: the allocation index whose page is
// ppage (< the physical page count). Allocated pages have indices below
// the number of pages allocated plus the few skipped for the reserved
// region, so a table indexed by PageIndex is as dense as the footprint.
func (s *System) PageIndex(ppage uint64) uint64 { return s.Numbering().Of(ppage) }

// Numbering is PageIndex as a mem.Numbering, extended to a bijection over
// every page number (the bits above the physical page space pass through),
// so the byte stores can file pages under their dense index.
func (s *System) Numbering() mem.Numbering {
	return mem.Numbering{Mask: s.totalPages - 1, Xor: s.xor, Mult: s.multInv}
}

// Translate maps (core, virtual byte address) to a physical line address,
// allocating a physical page on first touch. allocated reports whether this
// call performed the first-touch allocation (the caller initializes the
// page's contents then).
func (s *System) Translate(core int, vaddr uint64) (addr mem.LineAddr, allocated bool, err error) {
	vpage := vaddr >> PageShift
	tbl := &s.tables[core]
	ppage := uint64(tbl.Get(vpage)) - 1
	if ppage == ^uint64(0) {
		limit := s.totalPages - s.reservedPages
		if s.allocated >= limit {
			return 0, false, fmt.Errorf("vm: out of physical memory (%d pages)", limit)
		}
		for {
			ppage = s.permute(s.nextIdx)
			s.nextIdx++
			if ppage < limit {
				break
			}
		}
		s.allocated++
		tbl.Set(vpage, uint32(ppage+1))
		allocated = true
	}
	lineInPage := (vaddr >> 6) & (PageLines - 1)
	return mem.LineAddr(ppage<<(PageShift-6) | lineInPage), allocated, nil
}

// AllocatedPages returns the number of physical pages handed out.
func (s *System) AllocatedPages() uint64 { return s.allocated }

// FootprintBytes returns the allocated physical footprint.
func (s *System) FootprintBytes() uint64 { return s.allocated << PageShift }

// ReservedBase returns the first line address of the reserved region.
func (s *System) ReservedBase() mem.LineAddr {
	return mem.LineAddr((s.totalPages - s.reservedPages) << (PageShift - 6))
}

// TotalLines returns the number of physical lines in memory.
func (s *System) TotalLines() uint64 { return s.totalPages << (PageShift - 6) }
