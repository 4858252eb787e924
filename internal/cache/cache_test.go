package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ptmc/internal/mem"
)

func newCache(t *testing.T, size, assoc int) *Cache {
	t.Helper()
	c, err := New(Config{SizeBytes: size, Assoc: assoc})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidation(t *testing.T) {
	cases := []Config{
		{SizeBytes: 0, Assoc: 4},
		{SizeBytes: 4096, Assoc: 0},
		{SizeBytes: 64 * 3, Assoc: 1},       // 3 sets: not a power of two
		{SizeBytes: 64 * 10, Assoc: 4},      // lines not divisible
		{SizeBytes: -4096, Assoc: 4},        // negative
		{SizeBytes: 64 * 4 * 3, Assoc: 4},   // 3 sets
		{SizeBytes: 64 * 16 * 6, Assoc: 16}, // 6 sets
	}
	for _, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %+v should be rejected", cfg)
		}
	}
	if _, err := New(Config{SizeBytes: 8 << 20, Assoc: 16}); err != nil {
		t.Errorf("Table I LLC config rejected: %v", err)
	}
}

func TestMissThenHit(t *testing.T) {
	c := newCache(t, 64*8*4, 4)
	if _, hit := c.Lookup(42); hit {
		t.Fatal("empty cache should miss")
	}
	c.Install(42, Entry{Core: 3, Level: Comp2})
	e, hit := c.Lookup(42)
	if !hit {
		t.Fatal("expected hit after install")
	}
	if e.Core != 3 || e.Level != Comp2 {
		t.Errorf("entry fields lost: %+v", e)
	}
	if c.Stats.Hits != 1 || c.Stats.Misses != 1 {
		t.Errorf("stats = %+v", c.Stats)
	}
}

func TestLRUEviction(t *testing.T) {
	// Direct construct: 2 sets, 2 ways.
	c := newCache(t, 64*4, 2)
	// Addresses 0,2,4 map to set 0 (even line addrs).
	c.Install(0, Entry{})
	c.Install(2, Entry{})
	c.Lookup(0) // 0 is now MRU; 2 is LRU
	victim, _ := c.Install(4, Entry{})
	if !victim.Valid || victim.Tag != 2 {
		t.Errorf("victim = %+v, want tag 2", victim)
	}
	if _, hit := c.Probe(0); !hit {
		t.Error("line 0 should survive")
	}
	if _, hit := c.Probe(2); hit {
		t.Error("line 2 should be evicted")
	}
}

func TestDirtyVictimReported(t *testing.T) {
	c := newCache(t, 64*2, 2) // 1 set, 2 ways
	c.Install(0, Entry{Dirty: true})
	c.Install(1, Entry{})
	victim, _ := c.Install(2, Entry{})
	if !victim.Valid || victim.Tag != 0 || !victim.Dirty {
		t.Errorf("victim = %+v, want dirty tag 0", victim)
	}
	if c.Stats.DirtyEvicts != 1 {
		t.Errorf("dirty evicts = %d, want 1", c.Stats.DirtyEvicts)
	}
}

func TestReinstallKeepsDirty(t *testing.T) {
	c := newCache(t, 64*2, 2)
	c.Install(0, Entry{Dirty: true})
	victim, slot := c.Install(0, Entry{Level: Comp4})
	if victim.Valid {
		t.Error("re-install must not evict")
	}
	if !slot.Dirty {
		t.Error("re-install must not lose the dirty bit")
	}
	if slot.Level != Comp4 {
		t.Error("re-install should refresh the level tag")
	}
	if c.ValidCount() != 1 {
		t.Errorf("valid count = %d, want 1", c.ValidCount())
	}
}

func TestProbeDoesNotTouchLRUOrStats(t *testing.T) {
	c := newCache(t, 64*2, 2)
	c.Install(0, Entry{})
	c.Install(1, Entry{})
	before := c.Stats
	c.Probe(0) // would make 0 MRU if it updated LRU
	if c.Stats != before {
		t.Error("probe must not change stats")
	}
	victim, _ := c.Install(2, Entry{})
	if victim.Tag != 0 {
		t.Errorf("victim = %v, want 0 (probe must not refresh LRU)", victim.Tag)
	}
}

func TestInvalidate(t *testing.T) {
	c := newCache(t, 64*4, 2)
	c.Install(0, Entry{Dirty: true, Level: Comp2})
	old, ok := c.Invalidate(0)
	if !ok || !old.Dirty || old.Level != Comp2 {
		t.Errorf("invalidate returned %+v", old)
	}
	if _, ok := c.Invalidate(0); ok {
		t.Error("double invalidate should miss")
	}
	if _, hit := c.Probe(0); hit {
		t.Error("line should be gone")
	}
	// Invalidated slot is reused before evicting anyone.
	c.Install(2, Entry{})
	victim, _ := c.Install(4, Entry{})
	if victim.Valid {
		t.Error("install into invalidated slot must not evict")
	}
}

func TestPrefetchBitLifecycle(t *testing.T) {
	c := newCache(t, 64*2, 2)
	c.Install(8, Entry{Prefetch: true})
	e, hit := c.Lookup(8)
	if !hit || !e.Prefetch {
		t.Fatal("prefetched line should hit with bit set")
	}
	e.Prefetch = false // controller consumes the first demand hit
	e2, _ := c.Lookup(8)
	if e2.Prefetch {
		t.Error("prefetch bit should stay cleared")
	}
}

// TestQuickMatchesModel compares the cache against a reference model over
// random traces: containment after each op, and hit/miss agreement against
// a per-set LRU list model.
func TestQuickMatchesModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c, _ := New(Config{SizeBytes: 64 * 4 * 4, Assoc: 4}) // 4 sets
		model := map[int][]mem.LineAddr{}                    // set -> LRU order, MRU last
		find := func(l []mem.LineAddr, a mem.LineAddr) int {
			for i, x := range l {
				if x == a {
					return i
				}
			}
			return -1
		}
		for op := 0; op < 500; op++ {
			a := mem.LineAddr(rng.Intn(64))
			si := c.SetIndex(a)
			l := model[si]
			switch rng.Intn(3) {
			case 0: // lookup
				_, hit := c.Lookup(a)
				mi := find(l, a)
				if hit != (mi >= 0) {
					return false
				}
				if mi >= 0 {
					l = append(append(l[:mi:mi], l[mi+1:]...), a)
				}
			case 1: // install
				victim, _ := c.Install(a, Entry{})
				mi := find(l, a)
				if mi >= 0 {
					if victim.Valid {
						return false
					}
					l = append(append(l[:mi:mi], l[mi+1:]...), a)
				} else {
					if len(l) == 4 {
						if !victim.Valid || victim.Tag != l[0] {
							return false
						}
						l = l[1:]
					} else if victim.Valid {
						return false
					}
					l = append(l, a)
				}
			case 2: // invalidate
				_, ok := c.Invalidate(a)
				mi := find(l, a)
				if ok != (mi >= 0) {
					return false
				}
				if mi >= 0 {
					l = append(l[:mi:mi], l[mi+1:]...)
				}
			}
			model[si] = l
		}
		total := 0
		for _, l := range model {
			total += len(l)
		}
		return c.ValidCount() == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestForEachValidAndHitRate(t *testing.T) {
	c := newCache(t, 64*8, 2)
	c.Install(1, Entry{})
	c.Install(2, Entry{})
	n := 0
	c.ForEachValid(func(e *Entry) { n++ })
	if n != 2 {
		t.Errorf("ForEachValid visited %d, want 2", n)
	}
	c.Lookup(1)
	c.Lookup(99)
	if got := c.Stats.HitRate(); got != 0.5 {
		t.Errorf("hit rate = %v, want 0.5", got)
	}
	var empty Stats
	if empty.HitRate() != 0 {
		t.Error("empty hit rate should be 0")
	}
}

func TestLevelString(t *testing.T) {
	if Uncompressed.String() != "none" || Comp2.String() != "2:1" ||
		Comp4.String() != "4:1" || Level(7).String() == "" {
		t.Error("Level.String broken")
	}
}

// TestWideTagsStayDistinct fills one set with lines whose tags are too
// wide to pack (they all share the overflow tag) and lines whose tags
// pack: every line must still hit as itself and only as itself.
func TestWideTagsStayDistinct(t *testing.T) {
	c := newCache(t, 64*4*4, 4) // 4 sets
	lines := []mem.LineAddr{1 << 40, 1<<40 + 4, 1<<57 + 8, 12}
	for _, a := range lines {
		if v, _ := c.Install(a, Entry{Core: uint8(a % 251)}); v.Valid {
			t.Fatalf("install of %#x evicted %#x from a set with room", a, v.Tag)
		}
	}
	for _, a := range lines {
		e, ok := c.Probe(a)
		if !ok || e.Tag != a || e.Core != uint8(a%251) {
			t.Errorf("Probe(%#x) = %+v, %v", a, e, ok)
		}
	}
	for _, a := range []mem.LineAddr{1<<40 + 8, 1<<41 + 4, 1<<57 + 12, 1<<58 - 4} {
		if _, ok := c.Probe(a); ok {
			t.Errorf("Probe(%#x) hit a line it never installed", a)
		}
	}
	if _, ok := c.Invalidate(1 << 40); !ok {
		t.Fatal("Invalidate missed a resident wide-tag line")
	}
	if _, ok := c.Probe(1<<40 + 4); !ok {
		t.Error("invalidating one wide-tag line dropped another")
	}
	if c.ValidCount() != 3 {
		t.Errorf("ValidCount = %d, want 3", c.ValidCount())
	}
}

// TestLRUSurvivesClockWrap runs one random sequence of lookups, installs
// and invalidations on two caches, one with every set's LRU clock a few
// ticks from wrapping: the clocks wrap (and renumber) many times over, and
// every hit, victim and final count must match the fresh cache's.
func TestLRUSurvivesClockWrap(t *testing.T) {
	fresh := newCache(t, 64*4*4, 4)
	wrapping := newCache(t, 64*4*4, 4)
	rng := rand.New(rand.NewSource(2))
	for op := 0; op < 20000; op++ {
		if op%50 == 0 {
			for i := range wrapping.ticks { // jump each clock forward
				if v := ^uint16(0) - uint16(rng.Intn(3)); v > wrapping.ticks[i] {
					wrapping.ticks[i] = v
				}
			}
		}
		a := mem.LineAddr(rng.Intn(48))
		switch rng.Intn(3) {
		case 0:
			_, h1 := fresh.Lookup(a)
			_, h2 := wrapping.Lookup(a)
			if h1 != h2 {
				t.Fatalf("op %d: Lookup(%d) hit %v vs %v", op, a, h1, h2)
			}
		case 1:
			v1, _ := fresh.Install(a, Entry{})
			v2, _ := wrapping.Install(a, Entry{})
			if v1 != v2 {
				t.Fatalf("op %d: Install(%d) evicted %+v vs %+v", op, a, v1, v2)
			}
		case 2:
			_, ok1 := fresh.Invalidate(a)
			_, ok2 := wrapping.Invalidate(a)
			if ok1 != ok2 {
				t.Fatalf("op %d: Invalidate(%d) %v vs %v", op, a, ok1, ok2)
			}
		}
	}
	if fresh.Stats != wrapping.Stats || fresh.ValidCount() != wrapping.ValidCount() {
		t.Errorf("stats %+v vs %+v", fresh.Stats, wrapping.Stats)
	}
}
