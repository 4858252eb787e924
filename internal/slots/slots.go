// Package slots indexes the miss path's outstanding work — the
// simulator's MSHRs and the controller's in-flight reads — by line
// address. The work itself lives in slot tables its owner keeps and
// recycles; an Index maps a line address to its slot number by linear
// probing over a power-of-two table, with no Go map behind it and no
// allocation once the table has grown to the peak number of outstanding
// entries.
package slots

import "ptmc/internal/mem"

// minCells is the size of an Index's first table.
const minCells = 16

// Index maps line addresses to slot numbers. The zero Index is empty and
// ready to use. It stays at most half full, so probe runs are short.
type Index struct {
	keys  []mem.LineAddr
	vals  []int32 // slot number + 1; 0 marks an empty cell
	n     int     // entries stored
	shift uint    // 64 - log2(len(keys))
}

// home returns the cell a's probe run starts at (Fibonacci hashing).
func (x *Index) home(a mem.LineAddr) int {
	return int(uint64(a) * 0x9E3779B97F4A7C15 >> x.shift)
}

// Get returns a's slot number, if a has one.
func (x *Index) Get(a mem.LineAddr) (int, bool) {
	if x.n == 0 {
		return 0, false
	}
	m := len(x.keys) - 1
	for i := x.home(a); ; i = (i + 1) & m {
		switch {
		case x.vals[i] == 0:
			return 0, false
		case x.keys[i] == a:
			return int(x.vals[i] - 1), true
		}
	}
}

// Put maps a, which must have no slot yet, to slot.
func (x *Index) Put(a mem.LineAddr, slot int) {
	if 2*(x.n+1) > len(x.keys) {
		x.grow()
	}
	m := len(x.keys) - 1
	i := x.home(a)
	for x.vals[i] != 0 {
		i = (i + 1) & m
	}
	x.keys[i], x.vals[i] = a, int32(slot+1)
	x.n++
}

// Delete removes a's entry, if any. Later entries of its probe run shift
// back into the hole, so no tombstone is left behind.
func (x *Index) Delete(a mem.LineAddr) {
	if x.n == 0 {
		return
	}
	m := len(x.keys) - 1
	i := x.home(a)
	for x.keys[i] != a || x.vals[i] == 0 {
		if x.vals[i] == 0 {
			return
		}
		i = (i + 1) & m
	}
	x.n--
	for j := i; ; {
		x.vals[i] = 0
		for {
			j = (j + 1) & m
			if x.vals[j] == 0 {
				return
			}
			// Move j back to i unless its home lies cyclically in (i, j].
			if h := x.home(x.keys[j]); (j-h)&m >= (j-i)&m {
				break
			}
		}
		x.keys[i], x.vals[i] = x.keys[j], x.vals[j]
		i = j
	}
}

// grow doubles the table (or makes the first one) and reinserts every
// entry.
func (x *Index) grow() {
	keys, vals := x.keys, x.vals
	size := 2 * len(keys)
	if size < minCells {
		size = minCells
	}
	x.keys, x.vals, x.n = make([]mem.LineAddr, size), make([]int32, size), 0
	x.shift = 64
	for s := size; s > 1; s >>= 1 {
		x.shift--
	}
	for i, v := range vals {
		if v != 0 {
			x.Put(keys[i], int(v-1))
		}
	}
}
