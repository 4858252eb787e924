package memctrl

import (
	"math/rand"
	"testing"

	"ptmc/internal/cache"
	"ptmc/internal/core"
	"ptmc/internal/dram"
	"ptmc/internal/mem"
)

func newUncompressedRig(t *testing.T) *testRig {
	return newRig(t, 64*64, func(d *dram.DRAM, img, arch *mem.Store, llc LLC) Controller {
		return NewUncompressed(d, img, arch, llc)
	})
}

func newPTMCRig(t *testing.T, opts ...PTMCOption) *testRig {
	return newRig(t, 64*64, func(d *dram.DRAM, img, arch *mem.Store, llc LLC) Controller {
		return NewPTMC(d, img, arch, llc, 42, opts...)
	})
}

func TestUncompressedRoundTrip(t *testing.T) {
	r := newUncompressedRig(t)
	val := compressibleLine(7)
	r.write(0, 100, val)
	r.evict(100)
	got := r.read(0, 100)
	wantLine(t, got, val, "read after writeback")
	st := r.ctrl.Stats()
	if st.DirtyWrites != 1 || st.DemandReads == 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.IntegrityErrs != 0 {
		t.Errorf("integrity errors = %d", st.IntegrityErrs)
	}
	wantLine(t, r.img.Read(100), val, "DRAM image after writeback")
}

func TestUncompressedCleanEvictFree(t *testing.T) {
	r := newUncompressedRig(t)
	r.read(0, 5)
	r.evict(5)
	if got := r.ctrl.Stats().TotalWrites(); got != 0 {
		t.Errorf("clean evict cost %d writes, want 0", got)
	}
}

func TestPTMCPairCompression(t *testing.T) {
	r := newPTMCRig(t)
	// Two adjacent compressible lines, both dirty.
	r.write(0, 200, compressibleLine(1))
	r.write(0, 201, compressibleLine(2))
	r.evict(200) // ganged eviction takes 201 too

	st := r.ctrl.Stats()
	if st.Groups2 != 1 {
		t.Fatalf("Groups2 = %d, want 1", st.Groups2)
	}
	if st.Invalidates != 1 {
		t.Errorf("Invalidates = %d, want 1 (201's old location)", st.Invalidates)
	}
	if _, in := r.llc.Probe(201); in {
		t.Error("ganged eviction should have removed 201")
	}

	// The image at 200 is a sealed 2:1 unit; 201 is a tombstone.
	p := r.ctrl.(*PTMC)
	if got := p.Markers().Classify(200, r.img.Read(200)); got != core.ClassComp2 {
		t.Errorf("image class at 200 = %v, want 2:1", got)
	}
	if got := p.Markers().Classify(201, r.img.Read(201)); got != core.ClassInvalid {
		t.Errorf("image class at 201 = %v, want invalid", got)
	}

	// Reading either line streams out both.
	wantLine(t, r.read(0, 200), compressibleLine(1), "line 200")
	if _, in := r.llc.Probe(201); !in {
		t.Error("201 should have been installed for free")
	}
	if st.FreeInstalls == 0 || st.FillsCompressed == 0 {
		t.Errorf("stats = %+v", st)
	}
	wantLine(t, r.read(0, 201), compressibleLine(2), "line 201")
	if st.IntegrityErrs != 0 {
		t.Errorf("integrity errors = %d", st.IntegrityErrs)
	}
}

func TestPTMCQuadCompression(t *testing.T) {
	r := newPTMCRig(t)
	for i := 0; i < 4; i++ {
		r.write(0, mem.LineAddr(400+i), compressibleLine(byte(i)))
	}
	r.evict(401) // any member triggers the whole group

	st := r.ctrl.Stats()
	if st.Groups4 != 1 {
		t.Fatalf("Groups4 = %d, want 1 (stats %+v)", st.Groups4, st)
	}
	// Locations 401..403 become tombstones; 400 holds the quad.
	if st.Invalidates != 3 {
		t.Errorf("Invalidates = %d, want 3", st.Invalidates)
	}
	// One read brings back all four.
	wantLine(t, r.read(0, 403), compressibleLine(3), "line 403")
	for i := 0; i < 4; i++ {
		if _, in := r.llc.Probe(mem.LineAddr(400 + i)); !in {
			t.Errorf("member %d not resident after one fill", i)
		}
	}
	if st.FreeInstalls < 3 {
		t.Errorf("FreeInstalls = %d, want >= 3", st.FreeInstalls)
	}
	if st.IntegrityErrs != 0 {
		t.Errorf("integrity errors = %d", st.IntegrityErrs)
	}
}

func TestPTMCIncompressibleStaysSingle(t *testing.T) {
	r := newPTMCRig(t)
	r.write(0, 300, incompressibleLine(1))
	r.write(0, 301, incompressibleLine(2))
	r.evict(300)
	st := r.ctrl.Stats()
	if st.Groups2 != 0 || st.Groups4 != 0 {
		t.Error("incompressible pair must not form a unit")
	}
	wantLine(t, r.read(0, 300), incompressibleLine(1), "line 300")
}

func TestPTMCUpdateBreaksGroup(t *testing.T) {
	// §IV-C "Handling Updates to Compressed Lines": a compressed pair is
	// re-fetched, one member becomes incompressible, and the writeback
	// must relocate the partner back to its own location.
	r := newPTMCRig(t)
	r.write(0, 200, compressibleLine(1))
	r.write(0, 201, compressibleLine(2))
	r.evict(200)
	r.read(0, 200) // fills both with level tags Comp2

	// Dirty 201 with incompressible data.
	r.write(0, 201, incompressibleLine(9))
	r.evict(201) // gang-evicts 200 as well

	p := r.ctrl.(*PTMC)
	if got := p.Markers().Classify(200, r.img.Read(200)); got != core.ClassUncompressed {
		t.Errorf("200 image class = %v, want uncompressed", got)
	}
	if got := p.Markers().Classify(201, r.img.Read(201)); got != core.ClassUncompressed {
		t.Errorf("201 image class = %v, want uncompressed", got)
	}
	wantLine(t, r.read(0, 200), compressibleLine(1), "relocated partner")
	wantLine(t, r.read(0, 201), incompressibleLine(9), "updated line")
	if r.ctrl.Stats().IntegrityErrs != 0 {
		t.Error("integrity errors")
	}
}

func TestPTMCLLPMispredictRecovers(t *testing.T) {
	r := newPTMCRig(t)
	// Train the page toward 2:1 by compressing a pair...
	r.write(0, 200, compressibleLine(1))
	r.write(0, 201, compressibleLine(2))
	r.evict(200)
	// ...then place an uncompressed line in the same page.
	r.write(0, 210, incompressibleLine(3))
	r.evict(210)
	before := r.ctrl.Stats().MispredictReads
	// 211 is untouched memory; 210's eviction trained nothing about 211's
	// location, but the LLP predicts per page. Read 201 after re-breaking
	// the pair to force a wrong location.
	r.write(0, 201, incompressibleLine(4))
	r.evict(201)
	// Page LCT now says "uncompressed"; make it say compressed again via
	// a fresh pair elsewhere in the page, then read 201 (now single).
	r.write(0, 204, compressibleLine(5))
	r.write(0, 205, compressibleLine(6))
	r.evict(204)
	got := r.read(0, 201)
	wantLine(t, got, incompressibleLine(4), "mispredicted line value")
	if r.ctrl.Stats().MispredictReads == before {
		t.Error("expected at least one mispredict re-read")
	}
	if r.ctrl.Stats().IntegrityErrs != 0 {
		t.Error("integrity errors")
	}
}

func TestPTMCMarkerCollisionInversion(t *testing.T) {
	r := newPTMCRig(t)
	p := r.ctrl.(*PTMC)
	// Engineer a line whose tail equals its own 2:1 marker.
	val := incompressibleLine(5)
	m := p.Markers().Marker2(500)
	val[60] = byte(m)
	val[61] = byte(m >> 8)
	val[62] = byte(m >> 16)
	val[63] = byte(m >> 24)

	r.write(0, 500, val)
	r.evict(500)
	if p.Stats().Inversions != 1 {
		t.Fatalf("Inversions = %d, want 1", p.Stats().Inversions)
	}
	if inv, _ := p.LIT().Contains(500); !inv {
		t.Fatal("LIT should track the inverted line")
	}
	wantLine(t, r.read(0, 500), val, "inverted line reads back original")

	// Overwrite with non-colliding data: LIT entry must clear.
	r.write(0, 500, compressibleLine(9))
	r.evict(500)
	if inv, _ := p.LIT().Contains(500); inv {
		t.Error("LIT entry should clear once the collision is gone")
	}
	if p.Stats().IntegrityErrs != 0 {
		t.Error("integrity errors")
	}
}

func TestPTMCLITOverflowReKeys(t *testing.T) {
	r := newPTMCRig(t)
	p := r.ctrl.(*PTMC)
	// Adversary: craft 17 colliding lines (knows the key — worst case).
	for i := 0; i <= core.LITEntries; i++ {
		a := mem.LineAddr(1000 + i*4) // distinct groups, no compression
		val := incompressibleLine(uint64(i))
		m := p.Markers().Marker2(a)
		// The marker generation may change mid-loop (re-key); recompute.
		m = p.Markers().Marker2(a)
		val[60], val[61], val[62], val[63] = byte(m), byte(m>>8), byte(m>>16), byte(m>>24)
		r.write(0, a, val)
		r.evict(a)
	}
	if p.Stats().ReKeys == 0 {
		t.Fatal("LIT overflow should have re-keyed")
	}
	// After re-keying, every line must still read back correctly.
	for i := 0; i <= core.LITEntries; i++ {
		a := mem.LineAddr(1000 + i*4)
		got := r.read(0, a)
		wantLine(t, got, r.arch.Read(a), "post-rekey line")
	}
	if p.Stats().IntegrityErrs != 0 {
		t.Error("integrity errors after re-key")
	}
}

func TestPTMCMemoryMappedLIT(t *testing.T) {
	r := newPTMCRig(t, WithLITMode(core.LITMemoryMapped))
	p := r.ctrl.(*PTMC)
	for i := 0; i <= core.LITEntries+3; i++ {
		a := mem.LineAddr(2000 + i*4)
		val := incompressibleLine(uint64(i))
		m := p.Markers().Marker2(a)
		val[60], val[61], val[62], val[63] = byte(m), byte(m>>8), byte(m>>16), byte(m>>24)
		r.write(0, a, val)
		r.evict(a)
	}
	if p.Stats().ReKeys != 0 {
		t.Error("memory-mapped LIT must not re-key")
	}
	if p.LIT().Overflows == 0 {
		t.Error("expected LIT overflows into the memory-mapped region")
	}
	for i := 0; i <= core.LITEntries+3; i++ {
		a := mem.LineAddr(2000 + i*4)
		wantLine(t, r.read(0, a), r.arch.Read(a), "spilled inverted line")
	}
}

func TestPTMCCleanEvictionCompressesAndCosts(t *testing.T) {
	// Clean lines are compressed on eviction — the inherent cost of
	// compression (§V): bandwidth spent now for bandwidth saved later.
	r := newPTMCRig(t)
	r.write(0, 240, compressibleLine(1))
	r.write(0, 241, compressibleLine(2))
	r.evict(240)   // pair written (dirty)
	r.read(0, 240) // refill both, clean, tags Comp2
	r.evict(240)   // clean ganged eviction: image unchanged
	st := r.ctrl.Stats()
	if st.CleanCompIntoW != 0 {
		t.Errorf("unchanged clean unit rewrote memory (%d writes)", st.CleanCompIntoW)
	}

	// Now a clean eviction that *changes* layout: fill two fresh
	// uncompressed-resident lines, evict clean -> compression write.
	r.write(0, 260, compressibleLine(3))
	r.evict(260)
	r.write(0, 261, compressibleLine(4))
	r.evict(261) // 260 not resident: single
	r.read(0, 260)
	r.read(0, 261) // both resident now, clean, tags Uncompressed
	r.evict(260)   // clean eviction forms a pair: costs a write + invalidate
	if st.CleanCompIntoW == 0 {
		t.Error("clean compression should cost a write")
	}
	wantLine(t, r.read(0, 261), compressibleLine(4), "after clean compression")
}

func TestDynamicPTMCDisablesUnderCosts(t *testing.T) {
	r := newPTMCRig(t, WithDynamic(1, 0.02, false))
	p := r.ctrl.(*PTMC)
	dyn := p.Dynamic()
	if dyn == nil {
		t.Fatal("dynamic policy missing")
	}
	// Drive costs through the sampled sets until compression disables.
	ctr := dyn.Counters()[0]
	for ctr.Enabled() {
		dyn.Cost(0)
	}
	// Non-sampled evictions must now write singles even when compressible.
	var a mem.LineAddr
	for probe := mem.LineAddr(0); ; probe += 4 {
		if !dyn.Sampled(r.llc.SetIndex(probe)) && !dyn.Sampled(r.llc.SetIndex(probe+1)) {
			a = probe
			break
		}
	}
	r.write(0, a, compressibleLine(1))
	r.write(0, a+1, compressibleLine(2))
	r.evict(a)
	if got := p.Stats().Groups2; got != 0 {
		t.Errorf("disabled dynamic still compressed (%d pairs)", got)
	}
	wantLine(t, r.read(0, a), compressibleLine(1), "uncompressed path")
}

func TestDynamicPTMCSampledSetsAlwaysCompress(t *testing.T) {
	r := newPTMCRig(t, WithDynamic(1, 0.02, false))
	p := r.ctrl.(*PTMC)
	dyn := p.Dynamic()
	for dyn.Counters()[0].Enabled() {
		dyn.Cost(0)
	}
	// Find a pair living in sampled sets.
	var a mem.LineAddr = ^mem.LineAddr(0)
	for probe := mem.LineAddr(0); probe < 4096; probe += 4 {
		if dyn.Sampled(r.llc.SetIndex(probe)) {
			a = probe
			break
		}
	}
	if a == ^mem.LineAddr(0) {
		t.Skip("no sampled pair base in range")
	}
	r.write(0, a, compressibleLine(1))
	r.write(0, a+1, compressibleLine(2))
	r.evict(a)
	if p.Stats().Groups2 == 0 {
		t.Error("sampled set should compress even when globally disabled")
	}
}

func TestNextLinePrefetchTraffic(t *testing.T) {
	r := newRig(t, 64*64, func(d *dram.DRAM, img, arch *mem.Store, llc LLC) Controller {
		return NewNextLinePrefetch(d, img, arch, llc)
	})
	r.read(0, 100)
	r.drain()
	st := r.ctrl.Stats()
	if st.PrefetchReads != 1 {
		t.Errorf("PrefetchReads = %d, want 1", st.PrefetchReads)
	}
	if _, in := r.llc.Probe(101); !in {
		t.Error("next line should be resident")
	}
}

func TestIdealTMCOneAccessPerGroup(t *testing.T) {
	r := newRig(t, 64*64, func(d *dram.DRAM, img, arch *mem.Store, llc LLC) Controller {
		return NewIdealTMC(d, img, arch, llc)
	})
	for i := 0; i < 4; i++ {
		r.write(0, mem.LineAddr(400+i), compressibleLine(byte(i)))
	}
	r.evict(401) // ganged eviction compresses the quad
	st := r.ctrl.Stats()
	base := st.DemandReads
	wantLine(t, r.read(0, 402), compressibleLine(2), "ideal fill")
	if st.DemandReads != base+1 {
		t.Errorf("ideal read cost %d accesses, want 1", st.DemandReads-base)
	}
	for i := 0; i < 4; i++ {
		if _, in := r.llc.Probe(mem.LineAddr(400 + i)); !in {
			t.Errorf("member %d missing after one ideal access", i)
		}
	}
	// The image holds a 4:1 quad and three tombstones, yet none of that
	// maintenance consumed DRAM bandwidth (charged categories stay zero).
	if st.CleanCompIntoW != 0 || st.Invalidates != 0 ||
		st.MetadataReads != 0 || st.MispredictReads != 0 {
		t.Errorf("ideal must have zero overhead: %+v", st)
	}
	// Clean re-eviction of the quad must also be free.
	writes := r.d.Stats.Writes
	r.evict(402)
	if r.d.Stats.Writes != writes {
		t.Errorf("clean ideal eviction wrote DRAM (%d -> %d)", writes, r.d.Stats.Writes)
	}
}

func TestTableTMCMetadataTraffic(t *testing.T) {
	r := newRig(t, 64*64, func(d *dram.DRAM, img, arch *mem.Store, llc LLC) Controller {
		c, err := NewTableTMC(d, img, arch, llc, 1<<30, 32<<10)
		if err != nil {
			t.Fatal(err)
		}
		return c
	})
	r.read(0, 100)
	st := r.ctrl.Stats()
	if st.MetadataReads != 1 {
		t.Errorf("cold fill metadata reads = %d, want 1", st.MetadataReads)
	}
	r.read(0, 101) // same metadata line: cached
	if st.MetadataReads != 1 {
		t.Errorf("warm fill metadata reads = %d, want 1", st.MetadataReads)
	}

	// Compress a pair and read it back through CSI.
	r.write(0, 200, compressibleLine(1))
	r.write(0, 201, compressibleLine(2))
	r.evict(200)
	tt := r.ctrl.(*TableTMC)
	if tt.Meta().Peek(200) != cache.Comp2 || tt.Meta().Peek(201) != cache.Comp2 {
		t.Error("CSI should record the 2:1 pair")
	}
	if st.Invalidates != 0 {
		t.Error("table-based design needs no Marker-IL tombstones")
	}
	wantLine(t, r.read(0, 201), compressibleLine(2), "CSI-directed fill")
	if _, in := r.llc.Probe(200); !in {
		t.Error("pair partner should install for free")
	}
	if st.IntegrityErrs != 0 {
		t.Error("integrity errors")
	}
}

// TestImageSoundnessProperty is the repo's central invariant (DESIGN.md
// §6): after an arbitrary interleaving of writes, evictions, and reads, a
// cold read of every touched line returns the architectural value, for
// every scheme.
func TestImageSoundnessProperty(t *testing.T) {
	schemes := map[string]func(t *testing.T) *testRig{
		"uncompressed": func(t *testing.T) *testRig { return newUncompressedRig(t) },
		"ptmc":         func(t *testing.T) *testRig { return newPTMCRig(t) },
		"dynamic-ptmc": func(t *testing.T) *testRig {
			return newPTMCRig(t, WithDynamic(2, 0.05, true))
		},
		"table-tmc": func(t *testing.T) *testRig {
			return newRig(t, 64*64, func(d *dram.DRAM, img, arch *mem.Store, llc LLC) Controller {
				c, err := NewTableTMC(d, img, arch, llc, 1<<30, 32<<10)
				if err != nil {
					t.Fatal(err)
				}
				return c
			})
		},
		"ideal": func(t *testing.T) *testRig {
			return newRig(t, 64*64, func(d *dram.DRAM, img, arch *mem.Store, llc LLC) Controller {
				return NewIdealTMC(d, img, arch, llc)
			})
		},
	}
	for name, mk := range schemes {
		t.Run(name, func(t *testing.T) {
			for seed := int64(0); seed < 4; seed++ {
				r := mk(t)
				rng := rand.New(rand.NewSource(seed))
				touched := map[mem.LineAddr]bool{}
				for op := 0; op < 1200; op++ {
					a := mem.LineAddr(rng.Intn(256))
					switch rng.Intn(4) {
					case 0, 1: // store with varied compressibility
						var val []byte
						if rng.Intn(2) == 0 {
							val = compressibleLine(byte(rng.Intn(250)))
						} else {
							val = incompressibleLine(rng.Uint64())
						}
						r.write(int(a)%2, a, val)
						touched[a] = true
					case 2: // load
						got := r.read(int(a)%2, a)
						wantLine(t, got, r.arch.Read(a), "load value")
						touched[a] = true
					case 3: // force eviction
						r.evict(a)
					}
				}
				r.flushAll()
				for a := range touched {
					got := r.read(0, a)
					wantLine(t, got, r.arch.Read(a), "cold readback")
				}
				if errs := r.ctrl.Stats().IntegrityErrs; errs != 0 {
					t.Fatalf("seed %d: %d integrity errors", seed, errs)
				}
			}
		})
	}
}
