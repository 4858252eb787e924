package radix

import (
	"math/rand"
	"testing"
)

// TestTableMatchesMap checks Get and Set against a map oracle over keys
// of every magnitude, set in an order that grows the tree after lower
// keys are already stored.
func TestTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var tb Table
	want := map[uint64]uint32{}
	if tb.Get(0) != 0 || tb.Get(1<<63) != 0 {
		t.Fatal("empty table returned a value")
	}
	keys := []uint64{0, 1, 255, 256, 1 << 20, 1<<40 + 7, 1<<63 + 5, ^uint64(0)}
	for i := 0; i < 2000; i++ {
		keys = append(keys, uint64(rng.Intn(5000)), rng.Uint64()>>uint(rng.Intn(64)))
	}
	for i, k := range keys {
		v := uint32(i + 1)
		tb.Set(k, v)
		want[k] = v
		if got := tb.Get(k); got != v {
			t.Fatalf("Get(%#x) right after Set = %d, want %d", k, got, v)
		}
	}
	for k, v := range want {
		if got := tb.Get(k); got != v {
			t.Errorf("Get(%#x) = %d, want %d", k, got, v)
		}
	}
	for i := 0; i < 10000; i++ {
		k := rng.Uint64() >> uint(rng.Intn(64))
		if got := tb.Get(k); got != want[k] {
			t.Errorf("Get(%#x) = %d, want %d", k, got, want[k])
		}
	}
}

// TestTableBoundedByKeys stores a handful of keys spread over the whole
// 64-bit range: the tree holds at most one node per level per key.
func TestTableBoundedByKeys(t *testing.T) {
	var tb Table
	keys := []uint64{3, 1 << 28, 1 << 40, 1<<51 + 9, 1<<63 + 1}
	for i, k := range keys {
		tb.Set(k, uint32(i+1))
	}
	const levels = 64 / bits
	if max := 2 * (1 + len(keys)*levels) * fan * 4; tb.Bytes() > max {
		t.Errorf("%d keys take %d bytes, want at most %d", len(keys), tb.Bytes(), max)
	}
}
