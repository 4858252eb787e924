package memctrl

import (
	"ptmc/internal/cache"
	"ptmc/internal/dram"
	"ptmc/internal/mem"
	"ptmc/internal/metadata"
)

// MemZip models the prior TMC design the paper positions itself against
// (§I, §VII: Shafiee et al., HPCA 2014): every line stays at its own
// location, but it is stored compressed within one chip and streamed out
// with a reduced burst length proportional to its compressed size. This
// requires non-commodity DIMM organization and variable-burst bus
// protocols — the deployment obstacle PTMC removes — and it still needs
// per-line metadata (the burst length) before the read can be issued,
// which this model serves through the same memory-backed metadata table +
// cache as TableTMC.
//
// Bandwidth benefit: burst beats = ceil(compressedBytes/8) instead of 8.
// No co-location, so there is no free-prefetch effect and no invalidates.
type MemZip struct {
	base
	meta *metadata.Table
}

// NewMemZip builds the comparator; metaBase/mcacheBytes configure the
// burst-length metadata path.
func NewMemZip(d *dram.DRAM, img, arch *mem.Store, llc LLC,
	metaBase mem.LineAddr, mcacheBytes int) (*MemZip, error) {
	mt, err := metadata.New(metaBase, mcacheBytes)
	if err != nil {
		return nil, err
	}
	z := &MemZip{base: newBase("memzip", d, img, arch, llc), meta: mt}
	z.reader = z
	return z, nil
}

// Meta exposes the metadata table (hit-rate reporting).
func (z *MemZip) Meta() *metadata.Table { return z.meta }

// StoredBeats returns the burst length of the line's stored image
// (verification and tests).
func (z *MemZip) StoredBeats(a mem.LineAddr) int { return z.burstBeats(z.imgLine(a)) }

// burstBeats is the reduced burst length a stored value streams out with:
// its compressed encoding's size in 8-byte bus beats, clamped to [1, 8].
// A line is stored compressed in place, so its burst length is a pure
// function of its image value, and the metadata table's contents — each
// line's burst length, which does not fit the table's 2-bit CSI encoding —
// need no store of their own; only the metadata-cache traffic of reading
// and updating them is charged (meta.Touch). The encoding lands in the
// scratch arena (only its length matters), so this allocates nothing.
func (z *MemZip) burstBeats(line []byte) int {
	enc := z.alg.AppendCompress(z.scr.groupBuf[:0], line)
	z.scr.groupBuf = enc[:0]
	return min(max((len(enc)+7)/8, 1), 8)
}

// Read implements Controller: metadata lookup (burst length) first, then a
// reduced burst for the data. A line stored in fewer than 8 beats is a
// one-member compressed unit at its own location.
func (z *MemZip) Read(core_ int, a mem.LineAddr, now int64, done Done) {
	z.chargeMeta(z.meta.Touch(a, false), now, z.pend(readState{core: core_, a: a, done: done}).fn)
}

// step issues the reduced burst once the burst length is known, then
// fills.
func (z *MemZip) step(r readState, c int64) {
	if r.stage != stageData {
		r.stage, r.beats = stageData, z.burstBeats(z.imgLine(r.a))
		z.issueRead(r, r.a, r.beats, kDemandRead, c)
		return
	}
	data := z.imgLine(r.a)
	if r.beats == 8 {
		z.fillLine(r.core, r.a, data, c, r.done)
		return
	}
	z.scr.lineRefs[0] = data
	z.fillUnit(r.core, r.a, r.a, cache.Uncompressed, z.scr.lineRefs[:1], c, r.done)
}

// Evict implements Controller: dirty lines re-compress in place; a burst
// length change costs a metadata update, charged as a dirty touch of the
// metadata cache. The old length is read off the image before the new
// value overwrites it, so every 1-8 beat transition is seen exactly.
func (z *MemZip) Evict(core_ int, e cache.Entry, now int64) {
	if !e.Dirty {
		return
	}
	old := z.burstBeats(z.imgLine(e.Tag))
	val := z.archLineSlot(e.Tag, 0)
	z.img.Write(e.Tag, val)
	beats := z.burstBeats(val)
	z.issueBurst(e.Tag, true, beats, kDirtyWrite, now, nil)
	if beats != old {
		z.chargeMeta(z.meta.Touch(e.Tag, true), now, nil)
	}
}
