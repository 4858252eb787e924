package slots

import (
	"math/rand"
	"testing"

	"ptmc/internal/mem"
)

// TestIndexMatchesMap drives an Index and a map oracle through random
// puts and deletes over a small key space (long probe runs, wrap-around
// and backward shifts) and compares every lookup.
func TestIndexMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var x Index
	want := map[mem.LineAddr]int{}
	key := func() mem.LineAddr {
		if rng.Intn(4) == 0 {
			return mem.LineAddr(rng.Uint64() >> 6)
		}
		return mem.LineAddr(rng.Intn(300))
	}
	for step := 0; step < 200000; step++ {
		a := key()
		_, in := want[a]
		switch {
		case !in && rng.Intn(3) > 0:
			x.Put(a, step)
			want[a] = step
		case in:
			x.Delete(a)
			delete(want, a)
		default:
			x.Delete(a) // absent: a no-op
		}
		b := key()
		got, ok := x.Get(b)
		w, wok := want[b]
		if ok != wok || got != w {
			t.Fatalf("step %d: Get(%d) = %d,%v, want %d,%v", step, b, got, ok, w, wok)
		}
		if x.n != len(want) {
			t.Fatalf("step %d: %d entries, want %d", step, x.n, len(want))
		}
	}
	for a, w := range want {
		if got, ok := x.Get(a); !ok || got != w {
			t.Errorf("Get(%d) = %d,%v, want %d", a, got, ok, w)
		}
	}
}

// TestIndexSteadyStateAllocs: once grown, puts and deletes allocate
// nothing.
func TestIndexSteadyStateAllocs(t *testing.T) {
	var x Index
	for i := 0; i < 64; i++ {
		x.Put(mem.LineAddr(i*977), i)
	}
	for i := 0; i < 64; i++ {
		x.Delete(mem.LineAddr(i * 977))
	}
	n := 0
	if allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 32; i++ {
			x.Put(mem.LineAddr(n+i*131), i)
		}
		for i := 0; i < 32; i++ {
			x.Delete(mem.LineAddr(n + i*131))
		}
		n += 7
	}); allocs != 0 {
		t.Errorf("steady-state puts and deletes allocate %.1f/op", allocs)
	}
}
