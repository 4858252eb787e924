package mem

import (
	"bytes"
	"testing"
)

// fuzzFill is FuzzStore's lazy-fill callback: a value that differs per
// line and from zero.
func fuzzFill(a LineAddr, buf []byte) {
	for i := range buf {
		buf[i] = byte(uint64(a)*7 + uint64(i)*13 + 1)
	}
}

// storeOracle is the flat model a Store must match: the last value written
// to each line; otherwise the fill value on a lazily registered page, else
// zero.
type storeOracle struct {
	written map[LineAddr][]byte
	pages   map[uint64]bool // registered page -> lazy
}

func (o *storeOracle) value(a LineAddr) []byte {
	if v, ok := o.written[a]; ok {
		return v
	}
	out := make([]byte, LineSize)
	if o.pages[uint64(a)/PageLines] {
		fuzzFill(a, out)
	}
	return out
}

func (o *storeOracle) register(a LineAddr) {
	if _, ok := o.pages[uint64(a)/PageLines]; !ok {
		o.pages[uint64(a)/PageLines] = false
	}
}

// FuzzStore drives a Store with random Read, ReadNoAlloc, Write,
// WritePartial and MarkLazy sequences over four pages and compares every
// result with a flat last-written map. Every slice Read returned for a
// materialized line is kept and must show the line's current value after
// each later operation: slots never move, whatever materializes around
// them. Each case runs under every test numbering (the identity and a
// vm-style bijection), and TouchedLines must list the registered pages'
// lines in ascending address order under both.
func FuzzStore(f *testing.F) {
	f.Add([]byte{4, 0, 0, 0, 0, 5, 1, 2, 10, 3, 3, 4, 40, 2})
	f.Add([]byte{2, 1, 9, 9, 0, 1, 9, 0, 3, 1, 9, 60, 4, 0, 64, 0, 0, 64, 0})
	f.Add(bytes.Repeat([]byte{4, 1, 0, 0, 0, 1, 3, 7}, 40))
	f.Fuzz(func(t *testing.T, ops []byte) {
		for _, nb := range numberings {
			fuzzStore(t, nb.n, ops)
		}
	})
}

// fuzzStore is one FuzzStore case on a store filing pages under n.
func fuzzStore(t *testing.T, n Numbering, ops []byte) {
	s := NewStore()
	s.SetNumbering(n)
	s.SetLazyFill(fuzzFill)
	o := &storeOracle{written: map[LineAddr][]byte{}, pages: map[uint64]bool{}}
	held := map[LineAddr][]byte{}
	var scratch [LineSize]byte
	for len(ops) >= 4 {
		op, a, x, y := ops[0]%5, LineAddr(ops[1])%(4*PageLines), ops[2], ops[3]
		ops = ops[4:]
		switch op {
		case 0: // Read
			got := s.Read(a)
			if !bytes.Equal(got, o.value(a)) {
				t.Fatalf("Read(%d) = %x, want %x", a, got[:8], o.value(a)[:8])
			}
			if s.Materialized(a) {
				held[a] = got
			}
		case 1: // ReadNoAlloc
			n := s.MaterializedLines()
			if got := s.ReadNoAlloc(a, scratch[:]); !bytes.Equal(got, o.value(a)) {
				t.Fatalf("ReadNoAlloc(%d) = %x, want %x", a, got[:8], o.value(a)[:8])
			}
			if s.MaterializedLines() != n {
				t.Fatalf("ReadNoAlloc(%d) materialized a line", a)
			}
		case 2: // Write
			v := make([]byte, LineSize)
			for i := range v {
				v[i] = x + byte(i)*y
			}
			s.Write(a, v)
			o.register(a)
			o.written[a] = v
		case 3: // WritePartial
			off := int(x) % LineSize
			part := bytes.Repeat([]byte{y}, 1+int(y)%(LineSize-off))
			want := append([]byte(nil), o.value(a)...)
			copy(want[off:], part)
			s.WritePartial(a, off, part)
			o.register(a)
			o.written[a] = want
		case 4: // MarkLazy
			base := a &^ (PageLines - 1)
			s.MarkLazy(base)
			o.pages[uint64(base)/PageLines] = true
		}
		for ha, v := range held {
			if !bytes.Equal(v, o.value(ha)) {
				t.Fatalf("slice Read returned for line %d now holds %x, want %x", ha, v[:8], o.value(ha)[:8])
			}
		}
	}
	if got, want := s.FootprintBytes(), uint64(len(o.pages))*PageLines*LineSize; got != want {
		t.Fatalf("FootprintBytes = %d, want %d", got, want)
	}
	touched := s.TouchedLines()
	if len(touched) != len(o.pages)*PageLines {
		t.Fatalf("TouchedLines has %d lines, want %d", len(touched), len(o.pages)*PageLines)
	}
	for i := 1; i < len(touched); i++ {
		if touched[i] <= touched[i-1] {
			t.Fatal("TouchedLines not ascending")
		}
	}
	for a := LineAddr(0); a < 4*PageLines; a++ {
		_, reg := o.pages[uint64(a)/PageLines]
		if s.Touched(a) != reg {
			t.Fatalf("Touched(%d) = %t, want %t", a, s.Touched(a), reg)
		}
		if got := s.ReadNoAlloc(a, scratch[:]); !bytes.Equal(got, o.value(a)) {
			t.Fatalf("final ReadNoAlloc(%d) = %x, want %x", a, got[:8], o.value(a)[:8])
		}
		if got := s.Read(a); !bytes.Equal(got, o.value(a)) {
			t.Fatalf("final Read(%d) = %x, want %x", a, got[:8], o.value(a)[:8])
		}
	}
	if zeroLine != ([LineSize]byte{}) {
		t.Fatal("the shared zero line was modified")
	}
}
