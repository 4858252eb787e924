// Package core implements the mechanisms that constitute PTMC's
// contribution (paper §IV-§V): inline-metadata markers with per-line
// attack-resilient values, the Line Inversion Table that handles marker
// collisions, the Invalid-Line marker that guards stale copies, the Line
// Location Predictor, the TMC address mapping, and the Dynamic-PTMC
// cost/benefit machinery.
package core

import (
	"encoding/binary"

	"ptmc/internal/cache"
	"ptmc/internal/mem"
)

// MarkerBytes is the width of the inline marker. A 4-byte marker leaves
// 60 bytes for compressed data and makes coincidental collisions ~1 in 4
// billion per line (§IV-C; the paper recommends 5 bytes only for systems
// with hundreds of gigabytes).
const MarkerBytes = 4

// CompressedBudget is the space available to compressed data in a 64-byte
// location once the marker is reserved.
const CompressedBudget = mem.LineSize - MarkerBytes

// Class is the interpretation of a line fetched from memory, determined
// entirely by scanning the line against the per-line markers — the inline
// metadata that replaces the metadata table.
type Class uint8

// Line classifications.
const (
	ClassUncompressed Class = iota // ordinary data
	ClassComp2                     // holds a 2:1 compressed pair
	ClassComp4                     // holds a 4:1 compressed quad
	ClassInvalid                   // Marker-IL: stale relocated line
	ClassInvComp2                  // complement of 2:1 marker: consult LIT
	ClassInvComp4                  // complement of 4:1 marker: consult LIT
	ClassInvIL                     // complement of Marker-IL: consult LIT
)

// NeedsLIT reports whether this classification requires a Line Inversion
// Table lookup to decide if the stored line is an inverted original.
func (c Class) NeedsLIT() bool {
	return c == ClassInvComp2 || c == ClassInvComp4 || c == ClassInvIL
}

// Level is the compression level of the unit a line of this class holds:
// Comp2 or Comp4 for a compressed unit, cache.Uncompressed otherwise.
func (c Class) Level() cache.Level {
	switch c {
	case ClassComp2:
		return cache.Comp2
	case ClassComp4:
		return cache.Comp4
	}
	return cache.Uncompressed
}

// MarkerGen derives the per-line marker values from secret keys. Keys are
// regenerated (ReKey) on LIT overflow, which changes every per-line marker
// — the paper's defense against denial-of-service via engineered
// collisions.
type MarkerGen struct {
	key   uint64
	keyIL uint64
	gen   int // generation counter, bumped by ReKey
}

// NewMarkerGen seeds the generator. In hardware the seed comes from a
// per-machine random source at boot; in the simulator it is the run seed.
func NewMarkerGen(seed int64) *MarkerGen {
	g := &MarkerGen{}
	g.key = mix(uint64(seed) ^ 0xA5A5_5A5A_DEAD_BEEF)
	g.keyIL = mix(uint64(seed) + 0x0123_4567_89AB_CDEF)
	return g
}

// mix is a SplitMix64/SipHash-style 64-bit finalizer. The paper calls for a
// cryptographically secure keyed hash (DES); the only properties the design
// uses are per-line unpredictability without the key and cheap
// regeneration, which this keyed mix provides for simulation purposes.
func mix(v uint64) uint64 {
	v ^= v >> 33
	v *= 0xFF51AFD7ED558CCD
	v ^= v >> 33
	v *= 0xC4CEB9FE1A85EC53
	v ^= v >> 33
	return v
}

// Generation returns how many times ReKey has run.
func (g *MarkerGen) Generation() int { return g.gen }

// ReKey regenerates the secret keys, changing all per-line markers.
func (g *MarkerGen) ReKey() {
	g.gen++
	g.key = mix(g.key ^ 0x9E3779B97F4A7C15)
	g.keyIL = mix(g.keyIL + 0x2545F4914F6CDD1D)
}

// markers returns the per-line 2:1 and 4:1 marker words, guaranteed
// pairwise distinct and not complements of one another (so classification
// is unambiguous).
func (g *MarkerGen) markers(a mem.LineAddr) (m2, m4 uint32) {
	h := mix(uint64(a)*0x9E3779B97F4A7C15 ^ g.key)
	m2 = uint32(h)
	m4 = uint32(h >> 32)
	for m4 == m2 || m4 == ^m2 {
		m4++ // degenerate draw: perturb deterministically
	}
	return m2, m4
}

// Marker2 returns the per-line 2:1 compression marker.
func (g *MarkerGen) Marker2(a mem.LineAddr) uint32 {
	m2, _ := g.markers(a)
	return m2
}

// Marker4 returns the per-line 4:1 compression marker.
func (g *MarkerGen) Marker4(a mem.LineAddr) uint32 {
	_, m4 := g.markers(a)
	return m4
}

// MarkerIL returns the per-line 64-byte Invalid-Line marker. Its last four
// bytes are patched to avoid the line's compression markers and their
// complements, so classification order cannot confuse an invalid line with
// a compressed or inverted one.
func (g *MarkerGen) MarkerIL(a mem.LineAddr) [mem.LineSize]byte {
	var line [mem.LineSize]byte
	h := mix(uint64(a) ^ g.keyIL)
	for i := 0; i < mem.LineSize; i += 8 {
		h = mix(h + 0x9E3779B97F4A7C15)
		binary.LittleEndian.PutUint64(line[i:], h)
	}
	m2, m4 := g.markers(a)
	tail := binary.LittleEndian.Uint32(line[CompressedBudget:])
	for tail == m2 || tail == m4 || tail == ^m2 || tail == ^m4 {
		tail++
	}
	binary.LittleEndian.PutUint32(line[CompressedBudget:], tail)
	return line
}

// Classify scans a fetched line against the per-line markers: the single
// operation that replaces a metadata-table lookup. ClassInvComp* results
// mean "uncompressed, but consult the LIT to learn whether the stored line
// is an inverted original".
func (g *MarkerGen) Classify(a mem.LineAddr, data []byte) Class {
	tail := binary.LittleEndian.Uint32(data[CompressedBudget:])
	m2, m4 := g.markers(a)
	// The cases below are mutually exclusive by construction: m2 != m4,
	// m4 != ^m2 (enforced in markers), x != ^x for any word, and the
	// Marker-IL tail is patched away from all four values.
	switch tail {
	case m2:
		return ClassComp2
	case m4:
		return ClassComp4
	case ^m2:
		return ClassInvComp2
	case ^m4:
		return ClassInvComp4
	}
	if isMarkerIL(g, a, data, false) {
		return ClassInvalid
	}
	if isMarkerIL(g, a, data, true) {
		return ClassInvIL
	}
	return ClassUncompressed
}

// isMarkerIL tests data against the Invalid-Line marker (or, when inverted
// is true, its complement — the stored form of a CPU line that happened to
// equal Marker-IL and was therefore inverted and LIT-tracked). It
// regenerates the marker incrementally and bails on the first mismatching
// word: this runs on every line classification and every first-touch
// collision check, and a real data line almost always diverges in word 0,
// so the common case costs two mixes instead of a full 64-byte synthesis.
// Equivalent, word for word, to comparing against MarkerIL(a).
func isMarkerIL(g *MarkerGen, a mem.LineAddr, data []byte, inverted bool) bool {
	inv := uint64(0)
	if inverted {
		inv = ^uint64(0)
	}
	h := mix(uint64(a) ^ g.keyIL)
	for i := 0; i < CompressedBudget-4; i += 8 {
		h = mix(h + 0x9E3779B97F4A7C15)
		if binary.LittleEndian.Uint64(data[i:]) != h^inv {
			return false
		}
	}
	h = mix(h + 0x9E3779B97F4A7C15)
	if binary.LittleEndian.Uint32(data[CompressedBudget-4:]) != uint32(h)^uint32(inv) {
		return false
	}
	// The final four bytes are MarkerIL's patched tail.
	m2, m4 := g.markers(a)
	tail := uint32(h >> 32)
	for tail == m2 || tail == m4 || tail == ^m2 || tail == ^m4 {
		tail++
	}
	return binary.LittleEndian.Uint32(data[CompressedBudget:]) == tail^uint32(inv)
}

// CollidesWithMarkers reports whether an uncompressed line about to be
// written to address a would be misclassified on a later read (it matches a
// compression marker in its tail, or equals the line's Marker-IL). Such
// lines must be stored inverted and tracked in the LIT.
func (g *MarkerGen) CollidesWithMarkers(a mem.LineAddr, data []byte) bool {
	tail := binary.LittleEndian.Uint32(data[CompressedBudget:])
	m2, m4 := g.markers(a)
	if tail == m2 || tail == m4 {
		return true
	}
	return isMarkerIL(g, a, data, false)
}

// MayCollide is CollidesWithMarkers screened from a bound on two words of
// the line: word 0 (bytes 0-7) and the tail word (bytes 60-63). It is true
// whenever the tail interval holds a compression marker or the word-0
// interval holds Marker-IL's word 0, hence for every colliding line whose
// words lie in b, so a false result proves the line can be stored raw
// without building it. A true result from a wider bound is settled by the
// line's exact words (a zero-span bound), a true one from those by
// CollidesWithMarkers on the whole line.
func (g *MarkerGen) MayCollide(a mem.LineAddr, b mem.LineBound) bool {
	m2, m4 := g.markers(a)
	if b.HasTail(m2) || b.HasTail(m4) {
		return true
	}
	return b.HasW0(mix(mix(uint64(a)^g.keyIL) + 0x9E3779B97F4A7C15))
}

// Invert returns the bitwise complement of a line.
func Invert(data []byte) []byte {
	out := make([]byte, len(data))
	for i, b := range data {
		out[i] = ^b
	}
	return out
}

// SealCompressed builds the 64-byte memory image of a compressed location:
// blob (≤ 60 bytes of concatenated compressed lines) padded with zeros,
// with the appropriate per-line marker in the last four bytes.
func (g *MarkerGen) SealCompressed(a mem.LineAddr, blob []byte, four bool) [mem.LineSize]byte {
	if len(blob) > CompressedBudget {
		panic("core: compressed blob exceeds 60-byte budget")
	}
	var line [mem.LineSize]byte
	copy(line[:], blob)
	m := g.Marker2(a)
	if four {
		m = g.Marker4(a)
	}
	binary.LittleEndian.PutUint32(line[CompressedBudget:], m)
	return line
}
