package workload

import (
	"encoding/binary"

	"ptmc/internal/mem"
)

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
		base := delta8Base(vline, seed)
		for i := 0; i < 8; i++ {
			h = mix64(h + uint64(i))
			binary.LittleEndian.PutUint64(buf[i*8:], base+uint64(h%120)+uint64(version))
		}
	case KindPointer:
		region := pointerRegion(vline, seed)
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

// delta8Base is the large base a Delta8 line's words are small deltas
// from, shared by each aligned run of eight lines.
func delta8Base(vline, seed uint64) uint64 { return mix64(vline>>3^seed) | 1<<40 }

// pointerRegion is the high bits every Pointer word of vline's page
// shares; its low 24 bits are zero.
func pointerRegion(vline, seed uint64) uint64 {
	return uint64(0x7F00_0000_0000) | (mix64(vline>>6^seed)&0xFFFF)<<24
}

// initWords returns mem.WordsOf(synthLine(kind, vline, 0, seed)) without
// building the line: it runs the same hash chain but keeps only word 0 and
// the tail word, and stops early where a kind's tail does not depend on
// the chain.
func initWords(kind ValueKind, vline, seed uint64) mem.LineWords {
	h := mix64(vline*0x9E3779B97F4A7C15 ^ seed)
	switch kind {
	case KindZero:
		// Bytes 0-3 hold the version (0), bytes 4-7 a small counter; the
		// rest is zero.
		return mem.LineWords{W0: (h % 16) << 32}
	case KindSmallInt:
		var w mem.LineWords
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
		region := pointerRegion(vline, seed)
		return mem.LineWords{W0: region | mix64(h)&0xFF_FFF8, Tail: uint32(region >> 32)}
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
		base := delta8Base(vline, seed)
		first, last = base+first%120, base+last%120
	case KindFP:
		mask := uint64(0x000F_FFFF_FFFF_FFFF)
		if mix64(vline^seed)&1 == 0 {
			mask &^= 0x0000_000F_FFFF_FFFF // truncated mantissa
		}
		first, last = 0x3FF0_0000_0000_0000|first&mask, 0x3FF0_0000_0000_0000|last&mask
	}
	return mem.LineWords{W0: first, Tail: uint32(last >> 32)}
}

// initSpan and initLo bound word 0 and the tail word of a version-0 line
// of the kind: they lie in the intervals mem.LineBound{Lo: initLo(kind,
// vline, seed), Span: initSpan(kind)} describes, which the kind fixes
// without running the line's hash chain:
//
//   - Zero: the tail is 0 and word 0 at most 15<<32;
//   - SmallInt: the tail and both halves of word 0 lie in [-125, 125],
//     so word 0 lies in [-125<<32, 126<<32);
//   - Pointer: the tail is the region's high word and word 0 lies in
//     [region, region+0xFF_FFF8];
//   - Delta8: word 0 lies in [base, base+119], so the tail is the high
//     word of base or the next (a carry out of base+119);
//   - FP: the top twelve bits of word 0 and of the tail are 0x3FF.
//
// The span is the kind's alone, so a page, whose lines share a kind, has
// one. A Random line has no bound short of its exact words (initWords),
// which is what it gets: a screen of a wider bound would answer "maybe"
// for every Random line and then compute its markers again from the words.
func initSpan(kind ValueKind) mem.LineWords {
	switch kind {
	case KindZero:
		return mem.LineWords{W0: 15 << 32}
	case KindSmallInt:
		return mem.LineWords{W0: 251<<32 - 1, Tail: 250}
	case KindPointer:
		return mem.LineWords{W0: 0xFF_FFF8}
	case KindDelta8:
		return mem.LineWords{W0: 119, Tail: 1}
	case KindFP:
		return mem.LineWords{W0: 1<<52 - 1, Tail: 1<<20 - 1}
	}
	return mem.LineWords{}
}

// initLo returns the lower ends of vline's version-0 intervals (initSpan).
func initLo(kind ValueKind, vline, seed uint64) mem.LineWords {
	switch kind {
	case KindZero:
		return mem.LineWords{}
	case KindSmallInt:
		// 0xFFFF_FF83 is -125: [-125, 125] wraps through zero.
		return mem.LineWords{W0: 0xFFFF_FF83 << 32, Tail: 0xFFFF_FF83}
	case KindPointer:
		region := pointerRegion(vline, seed)
		return mem.LineWords{W0: region, Tail: uint32(region >> 32)}
	case KindDelta8:
		base := delta8Base(vline, seed)
		return mem.LineWords{W0: base, Tail: uint32(base >> 32)}
	case KindFP:
		return mem.LineWords{W0: 0x3FF << 52, Tail: 0x3FF << 20}
	}
	return initWords(kind, vline, seed)
}
