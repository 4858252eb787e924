// Package radix is a hash-free table from uint64 keys to uint32 values: a
// radix tree of 256-entry nodes whose height grows with the largest key
// stored. A lookup is one load per level with no hashing and no branch on
// a missing node, and the tree's memory is bounded by the keys actually
// stored — at most one node per level per key — whatever their magnitude.
// Dense keys (a page's allocation index, a stream's virtual page) share
// nodes and keep the tree two or three levels deep.
//
// The virtual-memory page tables (internal/vm) and the byte stores' page
// index (internal/mem) are radix tables.
package radix

const (
	bits = 8
	fan  = 1 << bits
	mask = fan - 1
)

// node is one level's 256 entries: child node numbers in an interior
// node, values in a leaf. Node 0 is the all-zero nil node and is never
// written, so a lookup through a missing child walks node 0 down to a
// zero value instead of branching.
type node [fan]uint32

// Table maps uint64 keys to nonzero uint32 values; 0 means absent. The
// zero Table is empty and ready to use.
type Table struct {
	nodes []node // nodes[0] is the nil node once any node exists
	root  uint32
	span  uint // keys below 1<<span fit; a multiple of bits, 0 when empty
}

// Get returns key's value, or 0 if key has none.
func (t *Table) Get(key uint64) uint32 {
	if t.span == 0 || key>>t.span != 0 {
		return 0
	}
	n := t.root
	for sh := t.span - bits; sh != 0; sh -= bits {
		n = t.nodes[n][key>>sh&mask]
	}
	return t.nodes[n][key&mask]
}

// Set stores v (nonzero) as key's value.
func (t *Table) Set(key uint64, v uint32) {
	if v == 0 {
		panic("radix: Set of the absent value 0")
	}
	if t.span == 0 {
		t.nodes = append(t.nodes, node{}) // the nil node
		t.root = t.alloc()
		t.span = bits
	}
	for t.span < 64 && key>>t.span != 0 {
		r := t.alloc()
		t.nodes[r][0] = t.root
		t.root = r
		t.span += bits
	}
	n := t.root
	for sh := t.span - bits; sh != 0; sh -= bits {
		i := key >> sh & mask
		c := t.nodes[n][i]
		if c == 0 {
			c = t.alloc()
			t.nodes[n][i] = c
		}
		n = c
	}
	t.nodes[n][key&mask] = v
}

// alloc appends a zeroed node and returns its number.
func (t *Table) alloc() uint32 {
	t.nodes = append(t.nodes, node{})
	return uint32(len(t.nodes) - 1)
}

// Bytes returns the memory the table's nodes occupy, spare capacity
// included.
func (t *Table) Bytes() int { return cap(t.nodes) * fan * 4 }
