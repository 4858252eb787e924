package workload

import (
	"math/rand"
	"testing"
)

// TestVersionTableMatchesMap drives a versionTable and a map oracle
// through random sets over a small key space (long probe runs,
// wrap-around, several growths), with counts that include 0 and keys that
// include 0, and compares every lookup.
func TestVersionTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var x versionTable
	want := map[uint64]uint32{}
	key := func() uint64 {
		switch rng.Intn(4) {
		case 0:
			return rng.Uint64() >> 6
		case 1:
			return uint64(rng.Intn(64)) << 52 // equal low bits
		}
		return uint64(rng.Intn(5000))
	}
	for step := 0; step < 200000; step++ {
		a, v := key(), rng.Uint32()
		if rng.Intn(8) == 0 {
			v = 0
		}
		x.set(a, v)
		want[a] = v
		b := key()
		if got := x.get(b); got != want[b] {
			t.Fatalf("step %d: get(%d) = %d, want %d", step, b, got, want[b])
		}
		if x.n != len(want) {
			t.Fatalf("step %d: %d entries, want %d", step, x.n, len(want))
		}
		if 4*x.n > 3*len(x.keys) {
			t.Fatalf("step %d: %d entries in %d cells", step, x.n, len(x.keys))
		}
	}
	for a, w := range want {
		if got := x.get(a); got != w {
			t.Errorf("get(%d) = %d, want %d", a, got, w)
		}
	}
}
