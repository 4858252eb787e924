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
	t := &TableTMC{base: newBase("table-tmc", d, img, arch, llc), meta: mt}
	t.reader = t
	return t, nil
}

// Meta exposes the metadata table (Figure 9's hit-rate curve).
func (t *TableTMC) Meta() *metadata.Table { return t.meta }

// Read implements Controller: metadata lookup first (possibly a serialized
// DRAM access), then the data access at the location the CSI names.
func (t *TableTMC) Read(core_ int, a mem.LineAddr, now int64, done Done) {
	level, tr := t.meta.Lookup(a)
	t.chargeMeta(tr, now, t.pend(readState{core: core_, a: a, level: level, done: done}).fn)
}

// stageData marks a TableTMC or MemZip read whose data burst is in
// flight; before it, the read waits on its metadata.
const stageData = 1

// step issues the data access once the CSI is known, then fills.
func (t *TableTMC) step(r readState, c int64) {
	if r.stage != stageData {
		r.stage, r.home = stageData, core.HomeFor(r.a, r.level)
		t.issueRead(r, r.home, 0, kDemandRead, c)
		return
	}
	t.fill(r.core, r.a, r.home, r.level, c, r.done)
}

// fill decodes the unit at home and installs its members.
func (t *TableTMC) fill(core_ int, a, home mem.LineAddr, level cache.Level, now int64, done Done) {
	if level == cache.Uncompressed {
		t.fillLine(core_, a, t.imgLine(a), now, done)
		return
	}
	first, n := core.MembersSpan(home, level)
	if lines := t.decodeUnit(t.imgLine(home), n); lines != nil {
		t.fillUnit(core_, a, first, level, lines, now, done)
		return
	}
	t.fillLine(core_, a, t.archLineSlot(a, 0), now, done)
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
		t.countUnit(u.level)
		if u.level == cache.Uncompressed {
			t.img.Write(u.home, t.archLineSlot(u.home, 0))
		} else {
			var img [mem.LineSize]byte
			copy(img[:], u.blob)
			t.img.Write(u.home, img[:])
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
