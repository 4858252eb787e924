package memctrl

import "ptmc/internal/mem"

// beatPage holds the stored burst length (1-8 beats; 0 = never recorded,
// reads as a full 8-beat line) of every line in one allocation page.
type beatPage [mem.SlabLines]uint8

// beatStore maps each touched line to its stored burst length. It replaces
// the per-line map MemZip used to carry: array-backed pages mean the
// steady-state write path (dirty evictions re-recording a line's length) is
// one map read plus one byte store — no allocation.
type beatStore struct {
	pages map[mem.LineAddr]*beatPage
}

func newBeatStore() beatStore {
	return beatStore{pages: make(map[mem.LineAddr]*beatPage)}
}

// page returns (creating if needed) the page holding line a.
func (s *beatStore) page(a mem.LineAddr) *beatPage {
	base := a &^ mem.LineAddr(mem.SlabLines-1)
	p, ok := s.pages[base]
	if !ok {
		p = new(beatPage)
		s.pages[base] = p
	}
	return p
}

// set records line a's stored burst length (1-8 beats).
func (s *beatStore) set(a mem.LineAddr, beats int) {
	s.page(a)[int(a)&(mem.SlabLines-1)] = uint8(beats)
}

// get returns line a's stored burst length, defaulting to a full 8-beat
// burst for lines never recorded.
func (s *beatStore) get(a mem.LineAddr) int {
	p, ok := s.pages[a&^mem.LineAddr(mem.SlabLines-1)]
	if !ok {
		return 8
	}
	if b := p[int(a)&(mem.SlabLines-1)]; b != 0 {
		return int(b)
	}
	return 8
}
