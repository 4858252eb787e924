package workload

import "encoding/binary"

// ValueKind selects the data-value synthesizer for a page. Kinds map to the
// patterns FPC/BDI were designed around, so the *measured* compressibility
// of a workload (Figure 6) follows from its declared mix, not from an
// assumed compression ratio.
type ValueKind int

// Value kinds, roughly from most to least compressible.
const (
	KindZero     ValueKind = iota // zero-dominated lines (calloc'd state)
	KindSmallInt                  // 32-bit integers of small magnitude
	KindDelta8                    // 64-bit array of base+small-delta values
	KindPointer                   // 48-bit pointers sharing high bits
	KindFP                        // doubles; half the lines have truncated mantissas
	KindRandom                    // incompressible
	numKinds
)

// ValueMix is a weighted distribution of value kinds; pages draw their kind
// from it by address hash, so a page's compressibility is stable over time.
type ValueMix []struct {
	Kind   ValueKind
	Weight int
}

func (m ValueMix) total() int {
	t := 0
	for _, e := range m {
		t += e.Weight
	}
	return t
}

// kindFor picks the kind of a virtual page deterministically.
func (m ValueMix) kindFor(vpage, seed uint64) ValueKind {
	r := int(mix64(vpage^seed*0x94D049BB133111EB) % uint64(m.total()))
	for _, e := range m {
		r -= e.Weight
		if r < 0 {
			return e.Kind
		}
	}
	return m[len(m)-1].Kind
}

// mix64 is a SplitMix64 finalizer used for all deterministic synthesis.
func mix64(v uint64) uint64 {
	v ^= v >> 30
	v *= 0xBF58476D1CE4E5B9
	v ^= v >> 27
	v *= 0x94D049BB133111EB
	v ^= v >> 31
	return v
}

// synthLine writes the contents of virtual line vline at mutation version
// into buf (64 bytes). Deterministic in (kind, vline, version, seed).
func synthLine(kind ValueKind, vline uint64, version uint32, seed uint64, buf []byte) {
	h := mix64(vline*0x9E3779B97F4A7C15 ^ seed ^ uint64(version)<<48)
	switch kind {
	case KindZero:
		for i := range buf {
			buf[i] = 0
		}
		// A couple of live small counters so the page isn't trivially
		// static; stays highly compressible.
		binary.LittleEndian.PutUint32(buf[0:], uint32(version)%64)
		binary.LittleEndian.PutUint32(buf[4:], uint32(h%16))
	case KindSmallInt:
		for i := 0; i < 16; i++ {
			h = mix64(h + uint64(i))
			binary.LittleEndian.PutUint32(buf[i*4:], uint32(h%251)-125)
		}
	case KindDelta8:
		base := mix64(vline>>3^seed) | 1<<40 // large shared base per line
		for i := 0; i < 8; i++ {
			h = mix64(h + uint64(i))
			binary.LittleEndian.PutUint64(buf[i*8:], base+uint64(h%120)+uint64(version))
		}
	case KindPointer:
		region := uint64(0x7F00_0000_0000) | (mix64(vline>>6^seed)&0xFFFF)<<24
		for i := 0; i < 8; i++ {
			h = mix64(h + uint64(i))
			binary.LittleEndian.PutUint64(buf[i*8:], region|h&0xFF_FFF8)
		}
	case KindFP:
		trunc := mix64(vline^seed)&1 == 0 // half the lines: truncated mantissa
		for i := 0; i < 8; i++ {
			h = mix64(h + uint64(i))
			v := 0x3FF0_0000_0000_0000 | h&0x000F_FFFF_FFFF_FFFF
			if trunc {
				v &^= 0x0000_000F_FFFF_FFFF // low mantissa zeroed
			}
			binary.LittleEndian.PutUint64(buf[i*8:], v)
		}
	default: // KindRandom
		for i := 0; i < 8; i++ {
			h = mix64(h + uint64(i))
			binary.LittleEndian.PutUint64(buf[i*8:], h)
		}
	}
}

// LineWords is what first-touch marker screening needs of a line's value:
// word 0 (bytes 0-7) and the tail word (bytes 60-63), both little-endian.
type LineWords struct {
	W0   uint64
	Tail uint32
}

// WordsOf reads the LineWords of a 64-byte line.
func WordsOf(line []byte) LineWords {
	return LineWords{W0: binary.LittleEndian.Uint64(line), Tail: binary.LittleEndian.Uint32(line[60:])}
}

// initWords returns WordsOf(synthLine(kind, vline, 0, seed)) without
// building the line: it runs the same hash chain but keeps only the two
// words, and stops early where a kind's tail does not depend on the chain.
func initWords(kind ValueKind, vline, seed uint64) LineWords {
	h := mix64(vline*0x9E3779B97F4A7C15 ^ seed)
	switch kind {
	case KindZero:
		// Bytes 0-3 hold the version (0), bytes 4-7 a small counter; the
		// rest is zero.
		return LineWords{W0: (h % 16) << 32}
	case KindSmallInt:
		var w LineWords
		for i := uint64(0); i < 16; i++ {
			h = mix64(h + i)
			v := uint32(h%251) - 125
			switch i {
			case 0:
				w.W0 = uint64(v)
			case 1:
				w.W0 |= uint64(v) << 32
			case 15:
				w.Tail = v
			}
		}
		return w
	case KindPointer:
		// Each word is region | (h & 0xFF_FFF8); the low 24 bits never
		// reach the tail, so the tail is the region's high half.
		region := uint64(0x7F00_0000_0000) | (mix64(vline>>6^seed)&0xFFFF)<<24
		return LineWords{W0: region | mix64(h)&0xFF_FFF8, Tail: uint32(region >> 32)}
	}
	// The 8-word kinds: word 0 and word 7 of the chain.
	h = mix64(h)
	first := h
	for i := uint64(1); i < 8; i++ {
		h = mix64(h + i)
	}
	last := h
	switch kind {
	case KindDelta8:
		base := mix64(vline>>3^seed) | 1<<40
		first, last = base+first%120, base+last%120
	case KindFP:
		mask := uint64(0x000F_FFFF_FFFF_FFFF)
		if mix64(vline^seed)&1 == 0 {
			mask &^= 0x0000_000F_FFFF_FFFF // truncated mantissa
		}
		first, last = 0x3FF0_0000_0000_0000|first&mask, 0x3FF0_0000_0000_0000|last&mask
	}
	return LineWords{W0: first, Tail: uint32(last >> 32)}
}
