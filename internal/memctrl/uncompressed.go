package memctrl

import (
	"ptmc/internal/cache"
	"ptmc/internal/dram"
	"ptmc/internal/mem"
)

// Uncompressed is the baseline memory system: every line lives at its own
// location; reads fetch one line, dirty evictions write one line, clean
// evictions are free.
type Uncompressed struct {
	base
}

// NewUncompressed builds the baseline controller.
func NewUncompressed(d *dram.DRAM, img, arch *mem.Store, llc LLC) *Uncompressed {
	u := &Uncompressed{base: newBase("uncompressed", d, img, arch, llc)}
	u.reader = u
	return u
}

// Read implements Controller.
func (u *Uncompressed) Read(core int, a mem.LineAddr, now int64, done Done) {
	u.issueRead(readState{core: core, a: a, done: done}, a, 0, kDemandRead, now)
}

// step fills the line its read fetched.
func (u *Uncompressed) step(r readState, c int64) {
	u.fillLine(r.core, r.a, u.imgLine(r.a), c, r.done)
}

// Evict implements Controller.
func (u *Uncompressed) Evict(core int, e cache.Entry, now int64) {
	if !e.Dirty {
		return
	}
	u.img.Write(e.Tag, u.archLineSlot(e.Tag, 0))
	u.issue(e.Tag, true, kDirtyWrite, now, nil)
}

// NextLinePrefetch is the Table VI comparison: the uncompressed baseline
// plus a next-line prefetcher into L3. Unlike PTMC's free installs, each
// prefetch costs a full DRAM read.
type NextLinePrefetch struct {
	Uncompressed
}

// NewNextLinePrefetch builds the prefetching controller.
func NewNextLinePrefetch(d *dram.DRAM, img, arch *mem.Store, llc LLC) *NextLinePrefetch {
	p := &NextLinePrefetch{}
	p.base = newBase("nextline", d, img, arch, llc)
	p.reader = p
	return p
}

// stagePrefetch marks a NextLinePrefetch read as the prefetch.
const stagePrefetch = 1

// Read implements Controller: demand fetch plus a next-line prefetch.
func (p *NextLinePrefetch) Read(core int, a mem.LineAddr, now int64, done Done) {
	p.Uncompressed.Read(core, a, now, done)
	next := a + 1
	if _, in := p.llc.Probe(next); in {
		return
	}
	// The prefetch target may be untouched memory; architecturally that
	// reads as zeros, which is fine — install the tag either way.
	p.issueRead(readState{core: core, a: next, stage: stagePrefetch}, next, 0, kPrefetchRead, now)
}

// step completes a demand fill or installs a prefetch.
func (p *NextLinePrefetch) step(r readState, c int64) {
	if r.stage != stagePrefetch {
		p.Uncompressed.step(r, c)
		return
	}
	if _, in := p.llc.Probe(r.a); in {
		return // demand fill beat us
	}
	p.install(r.core, r.a, false, true, cache.Uncompressed, c)
}
