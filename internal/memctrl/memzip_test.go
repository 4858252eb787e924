package memctrl

import (
	"testing"

	"ptmc/internal/cache"
	"ptmc/internal/dram"
	"ptmc/internal/mem"
)

func newMemZipRig(t *testing.T) *testRig {
	return newRig(t, 64*64, func(d *dram.DRAM, img, arch *mem.Store, llc LLC) Controller {
		z, err := NewMemZip(d, img, arch, llc, 1<<30, 32<<10)
		if err != nil {
			t.Fatal(err)
		}
		return z
	})
}

func TestMemZipRoundTrip(t *testing.T) {
	r := newMemZipRig(t)
	val := compressibleLine(3)
	r.write(0, 100, val)
	r.evict(100)
	wantLine(t, r.read(0, 100), val, "memzip readback")
	if r.ctrl.Stats().IntegrityErrs != 0 {
		t.Error("integrity errors")
	}
}

func TestMemZipReducedBurstSavesBusTime(t *testing.T) {
	// A compressible line must occupy the bus for less time than an
	// incompressible one.
	busyFor := func(val []byte) uint64 {
		r := newMemZipRig(t)
		r.write(0, 100, val)
		r.evict(100)
		before := r.d.Stats.BusBusy
		r.read(0, 100)
		return r.d.Stats.BusBusy - before
	}
	comp := busyFor(compressibleLine(1))
	incomp := busyFor(incompressibleLine(1))
	if comp >= incomp {
		t.Errorf("compressible burst (%d) should be shorter than incompressible (%d)", comp, incomp)
	}
}

func TestMemZipPaysMetadata(t *testing.T) {
	r := newMemZipRig(t)
	r.read(0, 4096) // cold: metadata read precedes data
	if r.ctrl.Stats().MetadataReads != 1 {
		t.Errorf("metadata reads = %d, want 1", r.ctrl.Stats().MetadataReads)
	}
	r.read(0, 4097)
	r.evict(4097)
	r.read(0, 4097) // same metadata line: cached
	if r.ctrl.Stats().MetadataReads != 1 {
		t.Errorf("warm metadata reads = %d, want 1", r.ctrl.Stats().MetadataReads)
	}
}

// TestMemZipBeatChangeChargesMetadata is the regression test for the
// burst-length aliasing bug: the stored value used to be squeezed through
// the metadata table's 2-bit level encoding as newBeats&3, collapsing
// beats {4,8}→0 and {5,1}→1. The burst length derived from the stored
// image must cover the full 1-8 range, and a 4→8-beat transition —
// invisible modulo 4 — must still charge a metadata-cache access on
// eviction while an unchanged burst length charges none.
func TestMemZipBeatChangeChargesMetadata(t *testing.T) {
	r := newMemZipRig(t)
	z := r.ctrl.(*MemZip)
	a := mem.LineAddr(100)

	r.write(0, a, pairOnlyLine(1)) // ~25-byte encoding: a mid-range burst
	r.evict(a)
	if got := z.StoredBeats(a); got != 4 {
		t.Fatalf("mid-range line stored %d beats, want 4 (pick a value that encodes to 25-32 bytes)", got)
	}

	r.write(0, a, incompressibleLine(9)) // full-burst value
	lk := z.Meta().Lookups
	r.evict(a)
	if got := z.StoredBeats(a); got != 8 {
		t.Fatalf("incompressible line stored %d beats, want 8", got)
	}
	if z.Meta().Lookups != lk+1 {
		t.Errorf("4→8-beat eviction made %d metadata accesses, want 1 (aliasing bug: 4 and 8 both truncate to 0)",
			z.Meta().Lookups-lk)
	}

	r.write(0, a, incompressibleLine(10)) // different value, same 8-beat burst
	lk = z.Meta().Lookups
	r.evict(a)
	if z.Meta().Lookups != lk {
		t.Errorf("unchanged-burst eviction made %d metadata accesses, want 0", z.Meta().Lookups-lk)
	}
	if r.ctrl.Stats().IntegrityErrs != 0 {
		t.Error("integrity errors")
	}
}

// TestMemZipStoredBeatsFullRange drives one line through every reachable
// burst length and asserts StoredBeats reports exactly what the compressor
// produced — no 2-bit truncation anywhere in the pipeline.
func TestMemZipStoredBeatsFullRange(t *testing.T) {
	r := newMemZipRig(t)
	z := r.ctrl.(*MemZip)
	a := mem.LineAddr(200)
	seen := map[int]bool{}
	vals := [][]byte{
		compressibleLine(1), // tiny encoding
		pairOnlyLine(2),     // mid-range
		incompressibleLine(3),
	}
	for i, val := range vals {
		r.write(0, a, val)
		r.evict(a)
		got := z.StoredBeats(a)
		if got < 1 || got > 8 {
			t.Fatalf("value %d stored %d beats, outside [1,8]", i, got)
		}
		seen[got] = true
		wantLine(t, r.read(0, a), val, "readback after beat change")
	}
	if len(seen) < 3 {
		t.Fatalf("test values collapsed onto %d distinct burst lengths, want 3: %v", len(seen), seen)
	}
}

// TestMemZipEvictZeroAlloc pins the eviction hot path at zero heap
// allocations per dirty writeback in steady state (unchanged burst
// length): both burst lengths are compressed into the warm scratch arena
// from the stored image, and the DRAM request comes from the model's
// pool.
func TestMemZipEvictZeroAlloc(t *testing.T) {
	r := newMemZipRig(t)
	z := r.ctrl.(*MemZip)
	a := mem.LineAddr(300)
	r.write(0, a, incompressibleLine(7))
	r.evict(a)
	ev := func() {
		z.Evict(0, cache.Entry{Tag: a, Dirty: true, Valid: true}, r.now)
		r.drain()
	}
	for i := 0; i < 8; i++ {
		ev() // warm: request pool, write-queue capacity, scratch arena
	}
	if n := testing.AllocsPerRun(100, ev); n != 0 {
		t.Errorf("memzip steady-state eviction allocates %.1f/op, want 0", n)
	}
}

func TestMemZipNoColocationEffects(t *testing.T) {
	r := newMemZipRig(t)
	r.write(0, 200, compressibleLine(1))
	r.write(0, 201, compressibleLine(2))
	r.evict(200)
	st := r.ctrl.Stats()
	if st.Groups2 != 0 || st.Groups4 != 0 || st.Invalidates != 0 || st.FreeInstalls != 0 {
		t.Errorf("memzip must not co-locate: %+v", st)
	}
	if _, in := r.llc.Probe(201); !in {
		t.Error("no ganged eviction in memzip")
	}
}
