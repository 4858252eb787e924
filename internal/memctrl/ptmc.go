package memctrl

import (
	"ptmc/internal/cache"
	"ptmc/internal/core"
	"ptmc/internal/dram"
	"ptmc/internal/mem"
	"ptmc/internal/obs"
)

// PTMC is the paper's controller: inline-metadata markers instead of a
// metadata table, a Line Location Predictor instead of metadata lookups,
// and (optionally) Dynamic-PTMC set-sampled cost/benefit gating. The
// controller keeps no per-line state: everything it knows about memory
// layout comes from the markers in the lines it reads and the 2-bit
// compression tags in the LLC.
type PTMC struct {
	base
	markers    *core.MarkerGen
	llp        *core.LLP
	lit        *core.LIT
	dyn        *core.Dynamic // nil => static PTMC (always compress)
	rekeyDepth int

	// oracle mode (Ideal-TMC): line locations are known for free and
	// compression maintenance consumes no DRAM bandwidth.
	oracle bool
}

// PTMCOption configures optional behavior.
type PTMCOption func(*PTMC)

// WithDynamic enables Dynamic-PTMC with the given sampling fraction and
// per-core counters.
func WithDynamic(cores int, sampleFrac float64, perCore bool) PTMCOption {
	return func(p *PTMC) {
		p.dyn = core.NewDynamic(p.llc.NumSets(), cores, sampleFrac, perCore)
	}
}

// WithLITMode selects the LIT overflow strategy.
func WithLITMode(mode core.LITMode) PTMCOption {
	return func(p *PTMC) { p.lit = core.NewLIT(mode) }
}

// WithLLPEntries sizes the Last Compressibility Table (ablations).
func WithLLPEntries(n int) PTMCOption {
	return func(p *PTMC) { p.llp = core.NewLLP(n) }
}

// withOracle turns the controller into the Ideal-TMC upper bound.
func withOracle() PTMCOption {
	return func(p *PTMC) {
		p.oracle = true
		p.name = "ideal-tmc"
	}
}

// NewPTMC builds a static-PTMC controller; add WithDynamic for the full
// Dynamic-PTMC design.
func NewPTMC(d *dram.DRAM, img, arch *mem.Store, llc LLC, seed int64, opts ...PTMCOption) *PTMC {
	p := &PTMC{
		base:    newBase("ptmc", d, img, arch, llc),
		markers: core.NewMarkerGen(seed),
		llp:     core.NewLLP(core.LLPEntries),
		lit:     core.NewLIT(core.LITReKey),
	}
	p.reader = p
	for _, o := range opts {
		o(p)
	}
	if p.dyn != nil {
		p.name = "dynamic-ptmc"
	}
	if p.oracle {
		p.name = "ideal-tmc"
	}
	return p
}

// LLP exposes the predictor (Figure 9 accuracy reporting).
func (p *PTMC) LLP() *core.LLP { return p.llp }

// LIT exposes the inversion table (diagnostics and tests).
func (p *PTMC) LIT() *core.LIT { return p.lit }

// Markers exposes the marker generator (tests, re-key experiments).
func (p *PTMC) Markers() *core.MarkerGen { return p.markers }

// Dynamic exposes the Dynamic-PTMC policy (nil for static PTMC).
func (p *PTMC) Dynamic() *core.Dynamic { return p.dyn }

// InitScreen implements Controller: only a line that may collide with the
// current markers (core.MarkerGen.MayCollide) goes to InitLine, which
// settles it on the whole line. The screen is against the current
// generation only; reKey re-screens every line still unmaterialized in the
// image against each new one.
func (p *PTMC) InitScreen(a mem.LineAddr, b mem.LineBound) bool {
	return p.markers.MayCollide(a, b)
}

// sampled reports whether a line belongs to a sampled (always-compress)
// region. Sampling is keyed on the LLC set of the group base and decided
// per page-aligned run of sets, so every event of one compression group
// (eviction decision, free-fetch benefit, mispredict, invalidate) is
// observed by the same sample — and a sampled page is sampled in full,
// which keeps its page-granular LLP entry self-consistent even when
// compression is globally disabled (see core.Dynamic).
func (p *PTMC) sampled(a mem.LineAddr) bool {
	return p.dyn != nil && p.dyn.Sampled(p.llc.SetIndex(core.GroupBase(a)))
}

// OnDemandHit is called by the LLC owner when a demand access hits a line
// whose prefetch bit is set: the free prefetch proved useful. Sampled sets
// feed the benefit counter (Figure 16, event 1).
func (p *PTMC) OnDemandHit(core_ int, a mem.LineAddr) {
	p.st.UsefulFreePf++
	if p.sampled(a) {
		p.dyn.Benefit(core_)
	}
}

// InitLine implements Controller: first-touch lines enter memory
// uncompressed (with marker-collision handling but no bandwidth cost —
// the data predates the measured window).
func (p *PTMC) InitLine(a mem.LineAddr) {
	p.writeRaw(a, p.archLineSlot(a, 0), 0, false, kDirtyWrite)
}

// writeRaw stores an uncompressed line at its own location, inverting on
// marker collision and maintaining the LIT (§IV-C). When charge is true the
// DRAM write is issued and accounted under k.
//
// Collisions the on-chip LIT cannot absorb trigger a re-key; if a
// collision persists across re-keys (possible only under fault injection
// or a broken marker hash), the controller degrades gracefully instead of
// failing: the entry spills to the memory-backed LIT (the paper's Option-1
// fallback) and the line is stored inverted, which stays sound — the
// spilled entry keeps every later read and verification correct.
func (p *PTMC) writeRaw(a mem.LineAddr, data []byte, now int64, charge bool, k kind) {
	for attempt := 0; ; attempt++ {
		if !p.markers.CollidesWithMarkers(a, data) {
			p.img.Write(a, data)
			p.lit.Remove(a)
			break
		}
		if !p.lit.Insert(a) {
			// Tracked: store the complement so no resident line carries a
			// marker it shouldn't.
			p.st.Inversions++
			p.img.Write(a, core.Invert(data))
			break
		}
		// LIT overflow: re-key (re-encoding all of memory under fresh
		// markers), then retry this write under the new generation.
		if attempt >= 3 || !p.reKey(now, charge) {
			p.st.LITSpills++
			p.st.Inversions++
			p.img.Write(a, core.Invert(data))
			p.lit.ForceInsert(a)
			break
		}
	}
	if charge {
		p.issue(a, true, k, now, nil)
	}
}

// writeInvalid tombstones a stale location with its per-line Marker-IL.
func (p *PTMC) writeInvalid(a mem.LineAddr, now int64, charge bool) {
	il := p.markers.MarkerIL(a)
	p.img.Write(a, il[:])
	p.lit.Remove(a)
	if charge {
		p.issue(a, true, kInvalidateWrite, now, nil)
	}
}

// reKey handles LIT overflow (Option-2): regenerate marker keys and
// re-encode every resident line under the new markers — including the
// lines the sparse image has never stored, which are screened without
// being materialized. The latency is not modeled (the paper argues
// overflows are ~once per 10 million years); the event is counted and the
// re-encode is functional. It reports false —
// declining to re-key — when re-keys are already nested four deep: >16
// fresh-key collisions per pass, four passes in a row, means the marker
// hash is broken, not unlucky, and the caller must degrade to the
// memory-backed LIT instead of recursing forever.
func (p *PTMC) reKey(now int64, charge bool) bool {
	if p.rekeyDepth >= 4 {
		return false
	}
	p.rekeyDepth++
	defer func() { p.rekeyDepth-- }()

	p.st.ReKeys++
	if p.tr != nil {
		p.tr.Emit(obs.KindReKey, now, 0, 0, 0, int64(p.rekeyDepth))
	}
	old := *p.markers // snapshot of the outgoing generation
	wasInverted := map[mem.LineAddr]bool{}
	for _, a := range p.lit.Addresses() {
		wasInverted[a] = true
	}
	p.markers.ReKey()
	p.lit.Clear()
	var buf [mem.LineSize]byte
	for _, a := range p.img.TouchedLines() {
		if !p.img.Materialized(a) {
			// The image has never stored this line: it holds its raw
			// first-touch value, screened only against the generations
			// up to the outgoing one. Store it (inverted, LIT-tracked)
			// only if it collides with the new markers.
			if raw := p.img.ReadNoAlloc(a, buf[:]); p.markers.CollidesWithMarkers(a, raw) {
				p.writeRaw(a, raw, now, false, kDirtyWrite)
			}
			continue
		}
		data := p.img.Read(a)
		switch class := old.Classify(a, data); class {
		case core.ClassComp2, core.ClassComp4:
			resealed := p.markers.SealCompressed(a, data[:core.CompressedBudget], class == core.ClassComp4)
			p.img.Write(a, resealed[:])
		case core.ClassInvalid:
			p.writeInvalid(a, now, false)
		case core.ClassInvComp2, core.ClassInvComp4, core.ClassInvIL:
			raw := data
			if wasInverted[a] {
				raw = core.Invert(data)
			}
			p.writeRaw(a, raw, now, false, kDirtyWrite)
		default:
			// Plain data may collide with the *new* markers; writeRaw
			// re-applies inversion handling under the new generation.
			p.writeRaw(a, data, now, false, kDirtyWrite)
		}
	}
	return true
}

// Scrub repairs the memory image of a's 4-line compression group from the
// architectural store: every member is rewritten uncompressed at its own
// location (with full marker-collision handling) and any LLC-resident
// member's compression tag is reset to Uncompressed so later evictions see
// a layout consistent with memory. It models a RAS-style scrub engine —
// the recovery action run after a detected corruption — so its DRAM
// traffic is not charged. Compressed units homed inside the group are
// overwritten, which is sound: a unit's members never span groups.
func (p *PTMC) Scrub(a mem.LineAddr) {
	if p.tr != nil {
		p.tr.Emit(obs.KindScrub, 0, 0, 0, uint64(core.GroupBase(a)), 0)
	}
	gb := core.GroupBase(a)
	for i := 0; i < core.GroupLines; i++ {
		m := gb + mem.LineAddr(i)
		p.writeRaw(m, p.archLineSlot(m, 0), 0, false, kDirtyWrite)
		if e, in := p.llc.Probe(m); in {
			e.Level = cache.Uncompressed
		}
	}
}

// Read implements Controller: predict the line's location with the LLP,
// fetch, confirm with the inline marker, and fall back through the
// remaining candidate locations on a misprediction.
func (p *PTMC) Read(core_ int, a mem.LineAddr, now int64, done Done) {
	r := readState{core: core_, a: a, done: done}
	if p.oracle {
		r.home = p.oracleHome(a)
		p.tryRead(r, now)
		return
	}
	predicted := cache.Uncompressed
	if core.NeedsPrediction(a) {
		predicted = p.llp.Predict(a)
		r.counted = true
	}
	r.home = core.HomeFor(a, predicted)
	p.tryRead(r, now)
}

// oracleHome peeks at the memory image (free in Ideal-TMC) to find the
// location that actually covers line a.
func (p *PTMC) oracleHome(a mem.LineAddr) mem.LineAddr {
	var homes [3]mem.LineAddr
	for _, cand := range core.AppendCandidateHomes(homes[:0], a) {
		if core.Covers(cand, p.markers.Classify(cand, p.imgLine(cand)).Level(), a) {
			return cand
		}
	}
	return a
}

// tryRead probes one candidate home, r.home. r.tried is the set of homes
// already probed, as a bitmask indexed by group position (every candidate
// home lies within a's 4-line group, so three candidates fit in one byte
// and the read path carries no per-read map). The first probe is the
// demand access, later ones are mispredict costs. step continues the read
// when the probe's burst completes.
func (p *PTMC) tryRead(r readState, now int64) {
	k := kDemandRead
	if r.tried != 0 {
		k = kMispredictRead
		if p.sampled(r.a) {
			p.dyn.Cost(r.core)
		}
	}
	r.firstTry = r.tried == 0
	r.tried |= 1 << uint(core.GroupIndex(r.home))
	p.issueRead(r, r.home, 0, k, now)
}

// step classifies the probed home's image line at burst completion and
// fills from it, or moves on to the next candidate home.
func (p *PTMC) step(r readState, c int64) {
	a, home := r.a, r.home
	data := p.imgLine(home)
	switch class := p.markers.Classify(home, data); class {
	case core.ClassComp2, core.ClassComp4:
		level := class.Level()
		if core.Covers(home, level, a) {
			if r.coalesced && r.firstTry {
				if e, in := p.llc.Probe(a); in {
					// This demand was served by a burst already in
					// flight for a co-located neighbor: the primary
					// fill installed the whole unit, so this is a
					// coalesced completion — the free-fetch benefit,
					// observed directly. Consume the prefetch bit so
					// one free fetch feeds the utility counter exactly
					// once (a later demand hit must not recount it via
					// OnDemandHit), and leave the fill counters to the
					// primary that did the work. The unit's decode did
					// reveal where this line lives, so the predictor
					// still trains — uncounted, because no prediction
					// was exercised by a separate DRAM access.
					p.st.UsefulFreePf++
					if p.sampled(a) {
						p.dyn.Benefit(r.core)
					}
					p.llp.Record(a, level, false, false)
					e.Prefetch = false
					r.done(c + p.decompLat)
					return
				}
				// Coalesced but the primary did not install the demand
				// line (its own probe of this home missed): this fill
				// is real work, accounted normally below.
			}
			p.fillCompressed(r.core, a, home, level, data, r.counted, r.firstTry, c, r.done)
			return
		}
	case core.ClassInvComp2, core.ClassInvComp4, core.ClassInvIL:
		inverted, extra := p.lit.Contains(home)
		if extra {
			// Memory-mapped LIT: the inversion bit costs a read.
			p.issue(home, false, kMetadataRead, c, nil)
		}
		if home == a {
			val := data
			if inverted {
				val = core.Invert(data)
			}
			p.fillUncompressed(r.core, a, val, r.counted, r.firstTry, c, r.done)
			return
		}
	case core.ClassUncompressed:
		if home == a {
			p.fillUncompressed(r.core, a, data, r.counted, r.firstTry, c, r.done)
			return
		}
	case core.ClassInvalid:
		// Stale location: the line lives elsewhere.
	}
	p.retryRead(r, c)
}

// retryRead falls through the remaining candidate locations.
func (p *PTMC) retryRead(r readState, now int64) {
	var homes [3]mem.LineAddr
	for _, cand := range core.AppendCandidateHomes(homes[:0], r.a) {
		if r.tried&(1<<uint(core.GroupIndex(cand))) == 0 {
			r.home = cand
			p.tryRead(r, now)
			return
		}
	}
	// All candidates exhausted: the memory image is corrupt. Degrade
	// gracefully — count the detection and serve the architectural value
	// uncompressed so the system keeps running.
	p.st.FallbackReads++
	p.fillUncompressed(r.core, r.a, p.archLineSlot(r.a, 0), r.counted, false, now, r.done)
}

// fillCompressed decodes a compressed unit, trains the LLP, and fills the
// unit; an undecodable unit falls back to the architectural value.
func (p *PTMC) fillCompressed(core_ int, a, home mem.LineAddr, level cache.Level,
	data []byte, counted, firstTry bool, now int64, done Done) {

	first, n := core.MembersSpan(home, level)
	lines := p.decodeUnit(data[:core.CompressedBudget], n)
	if lines == nil {
		p.fillUncompressed(core_, a, p.archLineSlot(a, 0), counted, false, now, done)
		return
	}
	p.llp.Record(a, level, counted, firstTry)
	p.fillUnit(core_, a, first, level, lines, now, done)
}

// fillUncompressed trains the LLP and fills a plain line.
func (p *PTMC) fillUncompressed(core_ int, a mem.LineAddr, data []byte,
	counted, firstTry bool, now int64, done Done) {
	p.llp.Record(a, cache.Uncompressed, counted, firstTry)
	p.fillLine(core_, a, data, now, done)
}

// Evict implements Controller: the PTMC writeback path — gang eviction,
// opportunistic (re)compression within the 60-byte budget, Marker-IL
// tombstones for locations that go stale, and LIT maintenance.
func (p *PTMC) Evict(core_ int, e cache.Entry, now int64) {
	if p.tr != nil {
		p.tr.Emit(obs.KindEvict, now, 0, int(e.Core), uint64(e.Tag), int64(e.Level))
	}
	compressing := true
	if p.dyn != nil {
		compressing = p.dyn.ShouldCompress(int(e.Core), p.llc.SetIndex(core.GroupBase(e.Tag)))
	}
	sampled := p.sampled(e.Tag)

	units, evictees := p.planEviction(e, compressing, core.CompressedBudget)

	for _, u := range units {
		if u.unchanged {
			continue
		}
		k := kDirtyWrite
		charge := true
		if !u.anyDirty {
			k = kCleanCompWrite
			if p.oracle {
				charge = false // ideal: maintenance is free
			}
			if sampled {
				p.dyn.Cost(int(e.Core))
			}
		}
		p.countUnit(u.level)
		if u.level == cache.Uncompressed {
			p.writeRaw(u.home, p.archLineSlot(u.home, 0), now, charge, k)
			continue
		}
		sealed := p.markers.SealCompressed(u.home, u.blob, u.level == cache.Comp4)
		p.img.Write(u.home, sealed[:])
		p.lit.Remove(u.home)
		if charge {
			p.issue(u.home, true, k, now, nil)
		}
	}

	for _, loc := range p.staleLocations(units, evictees) {
		p.writeInvalid(loc, now, !p.oracle)
		if sampled {
			p.dyn.Cost(int(e.Core))
		}
	}
}
