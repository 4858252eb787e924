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
	return &Uncompressed{base: newBase("uncompressed", d, img, arch, llc)}
}

// InitLine implements Controller: memory holds the raw value.
func (u *Uncompressed) InitLine(a mem.LineAddr) {
	u.img.Write(a, u.arch.Read(a))
}

// InitLineReady implements Controller: the baseline image is the raw
// value, so whatever was synthesized in place is already correct.
// NextLinePrefetch inherits it.
func (u *Uncompressed) InitLineReady(a mem.LineAddr, data []byte) bool {
	return true
}

// Read implements Controller.
func (u *Uncompressed) Read(core int, a mem.LineAddr, now int64, done Done) {
	u.issue(a, false, kDemandRead, now, func(c int64) {
		u.st.FillsUncompressed++
		u.checkIntegrity(a, u.img.Read(a))
		u.install(core, a, false, false, cache.Uncompressed, c)
		done(c)
	})
}

// Evict implements Controller.
func (u *Uncompressed) Evict(core int, e cache.Entry, now int64) {
	if !e.Dirty {
		return
	}
	u.img.Write(e.Tag, u.arch.Read(e.Tag))
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
	return p
}

// Read implements Controller: demand fetch plus a next-line prefetch.
func (p *NextLinePrefetch) Read(core int, a mem.LineAddr, now int64, done Done) {
	p.Uncompressed.Read(core, a, now, done)
	next := a + 1
	if _, in := p.llc.Probe(next); in {
		return
	}
	// The prefetch target may be untouched memory; architecturally that
	// reads as zeros, which is fine — install the tag either way.
	p.issue(next, false, kPrefetchRead, now, func(c int64) {
		if _, in := p.llc.Probe(next); in {
			return // demand fill beat us
		}
		p.install(core, next, false, true, cache.Uncompressed, c)
	})
}
