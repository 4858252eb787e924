package memctrl

import (
	"testing"

	"ptmc/internal/cache"
	"ptmc/internal/mem"
)

// TestEvictionPlanZeroAlloc pins the writeback planner at zero heap
// allocations per eviction: the eviction set, the unit list, per-unit
// member lists, the evictee list, and the stale-location list all live in
// fixed arrays or the controller's scratch arena (every address a plan
// touches lies within the evictee's 4-line group), and the architectural
// gathers go through archLineSlot's scratch buffers. This is the guard for
// the group.go/scratch design — a map or make() reintroduced anywhere in
// planEviction or staleLocations fails it.
func TestEvictionPlanZeroAlloc(t *testing.T) {
	b, llc := planRig(t)
	for i := 0; i < 4; i++ {
		setArch(b, mem.LineAddr(100+i), compressibleLine(byte(i)))
	}
	install := func() {
		for i := 0; i < 4; i++ {
			llc.c.Install(mem.LineAddr(100+i), cache.Entry{Dirty: true})
		}
	}
	plan := func() {
		evicted, ok := llc.c.Invalidate(100)
		if !ok {
			t.Fatal("victim not resident")
		}
		units, evictees := b.planEviction(evicted, true, 60)
		if len(units) == 0 || len(evictees) == 0 {
			t.Fatal("empty plan")
		}
		b.staleLocations(units, evictees)
	}
	// Warm: settles the LLC set metadata and the compression arena.
	for i := 0; i < 8; i++ {
		install()
		plan()
	}
	if n := testing.AllocsPerRun(100, func() {
		install()
		plan()
	}); n != 0 {
		t.Errorf("planEviction steady state allocates %.1f/op, want 0", n)
	}
}

// TestEvictionPlanSinglesZeroAlloc covers the breakup path (incompressible
// group → one single per set member), which exercises the per-unit member
// arenas rather than the 4:1 fast path.
func TestEvictionPlanSinglesZeroAlloc(t *testing.T) {
	b, llc := planRig(t)
	for i := 0; i < 4; i++ {
		setArch(b, mem.LineAddr(200+i), incompressibleLine(uint64(i+1)))
	}
	install := func() {
		for i := 0; i < 4; i++ {
			llc.c.Install(mem.LineAddr(200+i), cache.Entry{Dirty: true})
		}
	}
	plan := func() {
		evicted, ok := llc.c.Invalidate(200)
		if !ok {
			t.Fatal("victim not resident")
		}
		units, evictees := b.planEviction(evicted, true, 60)
		if len(units) != 1 || units[0].level != cache.Uncompressed {
			t.Fatalf("want a single-line breakup, got %+v", units)
		}
		b.staleLocations(units, evictees)
	}
	for i := 0; i < 8; i++ {
		install()
		plan()
	}
	if n := testing.AllocsPerRun(100, func() {
		install()
		plan()
	}); n != 0 {
		t.Errorf("singles planEviction steady state allocates %.1f/op, want 0", n)
	}
}

// TestGroupCodecArenaZeroAlloc pins the controller-level compression hot
// path (compressGroup into the arena, decodeUnit into the line buffers) at
// zero allocations per group once the arena is warm.
func TestGroupCodecArenaZeroAlloc(t *testing.T) {
	b, _ := planRig(t)
	lines := b.scr.lines[:0]
	var bufs [4][mem.LineSize]byte
	for i := range bufs {
		copy(bufs[i][:], compressibleLine(byte(i)))
		lines = append(lines, bufs[i][:])
	}
	blob, fits := b.compressGroup(lines, 60)
	if !fits {
		t.Fatal("test lines must compress 4:1")
	}
	enc := append([]byte(nil), blob...)
	if n := testing.AllocsPerRun(200, func() {
		b.scr.groupBuf = b.scr.groupBuf[:0]
		if _, ok := b.compressGroup(lines, 60); !ok {
			t.Fatal("group stopped fitting")
		}
	}); n != 0 {
		t.Errorf("compressGroup allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if b.decodeUnit(enc, 4) == nil {
			t.Fatal("decodeUnit failed on a valid unit")
		}
	}); n != 0 {
		t.Errorf("decodeUnit allocates %.1f/op, want 0", n)
	}
}
