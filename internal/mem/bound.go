package mem

import "encoding/binary"

// LineWords is what first-touch marker screening reads of a line's value:
// word 0 (bytes 0-7) and the tail word (bytes 60-63), both little-endian.
type LineWords struct {
	W0   uint64
	Tail uint32
}

// WordsOf reads the LineWords of a 64-byte line.
func WordsOf(line []byte) LineWords {
	return LineWords{W0: binary.LittleEndian.Uint64(line), Tail: binary.LittleEndian.Uint32(line[LineSize-4:])}
}

// LineBound is what first-touch marker screening knows of a line's value
// before the line is built: its word 0 lies in the modular interval
// [Lo.W0, Lo.W0+Span.W0] and its tail word in [Lo.Tail, Lo.Tail+Span.Tail],
// each wrapping around its word size. A zero Span pins both words
// (ExactBound); a full one bounds nothing.
type LineBound struct {
	Lo, Span LineWords
}

// ExactBound returns the zero-span bound of a 64-byte line: its own word 0
// and tail word.
func ExactBound(line []byte) LineBound { return LineBound{Lo: WordsOf(line)} }

// HasW0 reports whether w lies in the word-0 interval.
func (b LineBound) HasW0(w uint64) bool { return w-b.Lo.W0 <= b.Span.W0 }

// HasTail reports whether t lies in the tail-word interval.
func (b LineBound) HasTail(t uint32) bool { return t-b.Lo.Tail <= b.Span.Tail }

// Exact reports whether b pins both words.
func (b LineBound) Exact() bool { return b.Span == LineWords{} }
