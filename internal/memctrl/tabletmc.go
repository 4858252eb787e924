package memctrl

import (
	"ptmc/internal/cache"
	"ptmc/internal/core"
	"ptmc/internal/dram"
	"ptmc/internal/mem"
	"ptmc/internal/metadata"
)

// TableTMC is the conventional transparent-compression design PTMC is
// measured against (Figures 4, 5, 12): the same co-location scheme, but
// line status lives in a memory-resident metadata table with a 32 KB
// on-chip metadata cache. Every fill needs the CSI first — a metadata-cache
// miss serializes a DRAM metadata read in front of the data read, and dirty
// metadata evictions cost DRAM writes. Because metadata is authoritative,
// no markers or Marker-IL tombstones are needed, and the full 64-byte
// budget is available to compressed data.
type TableTMC struct {
	base
	meta *metadata.Table
}

// NewTableTMC builds the baseline; metaBase is the reserved region where
// the metadata table lives (from vm.System.ReservedBase), mcacheBytes is
// the on-chip metadata cache size (32 KB in the paper).
func NewTableTMC(d *dram.DRAM, img, arch *mem.Store, llc LLC,
	metaBase mem.LineAddr, mcacheBytes int) (*TableTMC, error) {
	mt, err := metadata.New(metaBase, mcacheBytes)
	if err != nil {
		return nil, err
	}
	return &TableTMC{base: newBase("table-tmc", d, img, arch, llc), meta: mt}, nil
}

// Meta exposes the metadata table (Figure 9's hit-rate curve).
func (t *TableTMC) Meta() *metadata.Table { return t.meta }

// InitLine implements Controller: lines start uncompressed; cold CSI
// already reads as Uncompressed, so only the image needs writing.
func (t *TableTMC) InitLine(a mem.LineAddr) {
	t.img.Write(a, t.arch.Read(a))
}

// InitLineReady implements Controller: a first-touch table-TMC line lives
// uncompressed at its own address and the cold CSI table already reads as
// Uncompressed, so the raw bytes synthesized in place are a complete
// initial image — InitLine's only work is the image write already
// performed, and no metadata state moves. Always true.
func (t *TableTMC) InitLineReady(a mem.LineAddr, data []byte) bool { return true }

// chargeMeta issues the DRAM traffic of one metadata-cache transaction and
// calls then once the required metadata (if any) has arrived.
func (t *TableTMC) chargeMeta(tr metadata.Traffic, now int64, then Done) {
	if tr.NeedWrite {
		t.issue(tr.WriteAddr, true, kMetadataWrite, now, nil)
	}
	if tr.NeedRead {
		t.issue(tr.ReadAddr, false, kMetadataRead, now, then)
		return
	}
	if then != nil {
		then(now)
	}
}

// Read implements Controller: metadata lookup first (possibly a serialized
// DRAM access), then the data access at the location the CSI names.
func (t *TableTMC) Read(core_ int, a mem.LineAddr, now int64, done Done) {
	level, tr := t.meta.Lookup(a)
	t.chargeMeta(tr, now, func(c int64) {
		home := core.HomeFor(a, level)
		t.issue(home, false, kDemandRead, c, func(c2 int64) {
			t.fill(core_, a, home, level, c2, done)
		})
	})
}

// fill decodes the unit at home and installs its members.
func (t *TableTMC) fill(core_ int, a, home mem.LineAddr, level cache.Level, now int64, done Done) {
	first, n := core.MembersSpan(home, level)
	if level == cache.Uncompressed {
		t.st.FillsUncompressed++
		t.checkIntegrity(a, t.img.Read(a))
		t.install(core_, a, false, false, cache.Uncompressed, now)
		done(now)
		return
	}
	lines, err := t.decodeGroup(t.img.Read(home), n)
	if err != nil {
		// Undecodable unit: a detected fault, not silent corruption. Count
		// the degradation and serve the architectural value as an
		// uncompressed fill — the PTMC taxonomy — so demand fills still sum
		// across the compressed/uncompressed categories under injection and
		// IntegrityErrs stays reserved for wrong *decoded* values.
		t.st.UndecodableUnits++
		t.st.FillsUncompressed++
		t.checkIntegrity(a, t.arch.Read(a))
		t.install(core_, a, false, false, cache.Uncompressed, now)
		done(now)
		return
	}
	t.st.FillsCompressed++
	c := now + t.decompLat
	for i := 0; i < n; i++ {
		m := first + mem.LineAddr(i)
		if _, in := t.llc.Probe(m); in {
			continue
		}
		t.checkIntegrity(m, lines[i])
		if m == a {
			t.install(core_, m, false, false, level, c)
		} else {
			t.st.FreeInstalls++
			t.install(core_, m, false, true, level, c)
		}
	}
	done(c)
}

// Evict implements Controller: the same ganged-eviction compression path as
// PTMC, but stale locations need no tombstones (metadata is authoritative)
// and every CSI change costs metadata-cache traffic.
func (t *TableTMC) Evict(core_ int, e cache.Entry, now int64) {
	units, _ := t.planEviction(e, true, mem.LineSize)
	for _, u := range units {
		changedLevel := false
		for _, m := range u.members {
			if m.oldLevel != u.level {
				changedLevel = true
			}
		}
		if u.unchanged {
			continue
		}
		k := kDirtyWrite
		if !u.anyDirty {
			k = kCleanCompWrite
		}
		switch u.level {
		case cache.Comp4, cache.Comp2:
			if u.level == cache.Comp4 {
				t.st.Groups4++
			} else {
				t.st.Groups2++
			}
			var img [mem.LineSize]byte
			copy(img[:], u.blob)
			t.img.Write(u.home, img[:])
		default:
			t.st.SinglesWrit++
			t.img.Write(u.home, t.archLineSlot(u.home, 0))
		}
		t.issue(u.home, true, k, now, nil)
		if changedLevel {
			for _, m := range u.members {
				tr := t.meta.Update(m.addr, u.level)
				t.chargeMeta(tr, now, nil)
			}
		}
	}
}

// OnDemandHit counts useful free prefetches (parity with PTMC reporting).
func (t *TableTMC) OnDemandHit(core_ int, a mem.LineAddr) {
	t.st.UsefulFreePf++
}
