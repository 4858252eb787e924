package workload

// versionTable maps virtual lines to their mutation counts by linear
// probing over a power-of-two table, with no Go map behind it: the
// architectural value of a stored line is synthesized at its count, so
// every architectural read of such a line looks the count up. A line with
// no entry has count 0. The zero table is empty and ready to use; entries
// are never removed.
type versionTable struct {
	keys  []uint64 // vline + 1; 0 marks an empty cell
	vals  []uint32
	n     int  // entries stored
	shift uint // 64 - log2(len(keys))
}

// minVersionCells is the size of a table's first allocation.
const minVersionCells = 1024

// home returns the cell key's probe run starts at (Fibonacci hashing).
func (t *versionTable) home(key uint64) int {
	return int(key * 0x9E3779B97F4A7C15 >> t.shift)
}

// get returns vline's count.
func (t *versionTable) get(vline uint64) uint32 {
	if t.n == 0 {
		return 0
	}
	key, m := vline+1, len(t.keys)-1
	for i := t.home(key); ; i = (i + 1) & m {
		switch t.keys[i] {
		case key:
			return t.vals[i]
		case 0:
			return 0
		}
	}
}

// set records v as vline's count.
func (t *versionTable) set(vline uint64, v uint32) {
	// At most three quarters full: a count is looked up far more often
	// than a line is first stored to, and a hit ends a short probe run.
	if 4*(t.n+1) > 3*len(t.keys) {
		t.grow()
	}
	key, m := vline+1, len(t.keys)-1
	if key == 0 {
		panic("workload: virtual line 2^64-1 has no version cell") // vline is vaddr>>6
	}
	i := t.home(key)
	for t.keys[i] != key && t.keys[i] != 0 {
		i = (i + 1) & m
	}
	if t.keys[i] == 0 {
		t.keys[i] = key
		t.n++
	}
	t.vals[i] = v
}

// grow doubles the table (or makes the first one) and reinserts every
// entry.
func (t *versionTable) grow() {
	keys, vals := t.keys, t.vals
	size := 2 * len(keys)
	if size < minVersionCells {
		size = minVersionCells
	}
	t.keys, t.vals, t.n = make([]uint64, size), make([]uint32, size), 0
	t.shift = 64
	for s := size; s > 1; s >>= 1 {
		t.shift--
	}
	for i, k := range keys {
		if k != 0 {
			t.set(k-1, vals[i])
		}
	}
}
