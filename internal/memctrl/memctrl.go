// Package memctrl implements the memory-controller schemes the paper
// evaluates, from the uncompressed baseline to Dynamic-PTMC:
//
//	Uncompressed        — baseline everything is normalized to
//	NextLinePrefetch    — Table VI's comparison point
//	NewIdealTMC         — a *PTMC with oracle location and free maintenance
//	TableTMC            — TMC with a memory-resident metadata table + cache
//	MemZip              — variable-burst TMC on non-commodity DIMMs (§VII)
//	PTMC                — inline markers + LLP (static, always compress)
//	NewPTMC+WithDynamic — Dynamic-PTMC: PTMC + set-sampled cost/benefit gating
//
// Every scheme moves real bytes: the DRAM image (compressed blobs, markers,
// inverted lines, Marker-IL tombstones) is kept in a sparse store and
// decoded on every fill, so correctness is checked, not assumed. Every
// scheme serves a read through base's fill steps (imgLine, decodeUnit,
// fillUnit, fillLine), which read the image without storing it: an image
// line is stored only when a controller writes it.
package memctrl

import (
	"ptmc/internal/cache"
	"ptmc/internal/compress"
	"ptmc/internal/dram"
	"ptmc/internal/mem"
	"ptmc/internal/metadata"
	"ptmc/internal/obs"
	"ptmc/internal/slots"
)

// DecompressCycles is the default decompression latency added to fills of
// compressed data (Table I methodology: 5 cycles). Override per controller
// with SetDecompressCycles for sensitivity studies.
const DecompressCycles = 5

// Done is a completion callback carrying the CPU cycle of completion.
type Done func(now int64)

// LLC is the controller's view of the shared L3: the controller installs
// fills (and free prefetches) and is called back on evictions.
type LLC interface {
	// Probe checks residency without touching LRU.
	Probe(a mem.LineAddr) (*cache.Entry, bool)
	// InstallFill inserts a filled line; the LLC owner routes any victim
	// back into Controller.Evict.
	InstallFill(core int, a mem.LineAddr, e cache.Entry, now int64)
	// Drop removes a line without writeback processing (ganged eviction:
	// the controller handles the data itself).
	Drop(a mem.LineAddr) (cache.Entry, bool)
	// SetIndex exposes set mapping for Dynamic-PTMC sampling.
	SetIndex(a mem.LineAddr) int
	// NumSets sizes the sampling machinery.
	NumSets() int
}

// Stats is the per-scheme bandwidth/event accounting. DRAM burst counts by
// category feed Figures 4 and 14 directly.
type Stats struct {
	// Reads (DRAM bursts).
	DemandReads     uint64 // data reads for demand fills
	MispredictReads uint64 // LLP wrong-location re-reads (PTMC cost)
	MetadataReads   uint64 // metadata-table fetches (TableTMC cost)
	PrefetchReads   uint64 // next-line prefetcher traffic

	// Writes (DRAM bursts).
	DirtyWrites    uint64 // writebacks that an uncompressed design also pays
	CleanCompIntoW uint64 // compressed writebacks of clean data (TMC cost)
	Invalidates    uint64 // Marker-IL tombstone writes (PTMC cost)
	MetadataWrites uint64 // dirty metadata evictions (TableTMC cost)

	// Compression outcomes.
	Groups4        uint64 // 4:1 units written
	Groups2        uint64 // 2:1 units written
	SinglesWrit    uint64 // uncompressed lines written
	FreeInstalls   uint64 // neighbor lines installed without a DRAM access
	UsefulFreePf   uint64 // free installs that saw a demand hit
	Inversions     uint64 // marker collisions handled by inversion
	ReKeys         uint64 // LIT-overflow re-key events
	CoalescedReads uint64 // reads served by an already-in-flight burst
	IntegrityErrs  uint64 // decoded value != architectural value (must stay 0)

	// Fills by source.
	FillsCompressed   uint64
	FillsUncompressed uint64

	// Graceful-degradation events. Each one is a fault the controller
	// detected and survived by falling back to uncompressed semantics;
	// all stay 0 in a healthy run and are the fault campaign's primary
	// detection signal (alongside IntegrityErrs).
	UndecodableUnits uint64 // compressed unit failed to decode on fill; fallback served
	FallbackReads    uint64 // every candidate location exhausted; architectural fallback served
	LITSpills        uint64 // marker collision survived re-keying; entry spilled to the memory-backed LIT
}

// Degradations returns the total graceful-degradation events (detected,
// survived faults).
func (s *Stats) Degradations() uint64 {
	return s.UndecodableUnits + s.FallbackReads + s.LITSpills
}

// TotalReads returns all DRAM read bursts the scheme generated.
func (s *Stats) TotalReads() uint64 {
	return s.DemandReads + s.MispredictReads + s.MetadataReads + s.PrefetchReads
}

// TotalWrites returns all DRAM write bursts the scheme generated.
func (s *Stats) TotalWrites() uint64 {
	return s.DirtyWrites + s.CleanCompIntoW + s.Invalidates + s.MetadataWrites
}

// Total returns all DRAM bursts.
func (s *Stats) Total() uint64 { return s.TotalReads() + s.TotalWrites() }

// Controller is a memory-controller scheme.
type Controller interface {
	// Name identifies the scheme ("ptmc", "uncompressed", ...).
	Name() string
	// Read fetches line a for core; the controller installs the fill (and
	// any freely obtained neighbors) into the LLC and then calls done.
	Read(core int, a mem.LineAddr, now int64, done Done)
	// Evict handles an LLC eviction (dirty or clean) of entry e.
	Evict(core int, e cache.Entry, now int64)
	// InitLine establishes a line's initial memory image from its
	// architectural value (first touch, before the measured window).
	InitLine(a mem.LineAddr)
	// Tick advances the controller and its DRAM by one bus cycle.
	Tick(now int64)
	// Pending reports outstanding work (drain loops).
	Pending() int
	// Stats exposes scheme accounting.
	Stats() *Stats
	// DRAM exposes the timing model (energy accounting, bus stats).
	DRAM() *dram.DRAM

	// InitScreen is the first-touch screen of one line of a lazily
	// initialized page, whose image line holds the raw synthesized value
	// without storing it. Given a bound on word 0 (bytes 0-7) and the tail
	// word (bytes 60-63) of that value, it reports whether the line may
	// need InitLine. False proves the raw value is a valid initial image
	// and that the controller records nothing for the line. A true answer
	// from a bound wider than the exact words is screened again from
	// them (mem.ExactBound); the caller runs InitLine on the lines the
	// exact words screen in, after screening the whole page, in
	// ascending address order.
	InitScreen(a mem.LineAddr, b mem.LineBound) bool
	// NextEventCycle returns the earliest CPU cycle at which ticking the
	// controller can change state; the run loop skips the cycles before it.
	NextEventCycle(now int64) int64
	// SkippedTicks credits the per-tick bookkeeping of n bus cycles the run
	// loop proved eventless and skipped.
	SkippedTicks(n int64)
}

// kind tags a DRAM request for stats accounting.
type kind int

const (
	kDemandRead kind = iota
	kMispredictRead
	kMetadataRead
	kPrefetchRead
	kDirtyWrite
	kCleanCompWrite
	kInvalidateWrite
	kMetadataWrite
)

// base carries the plumbing every scheme shares: the DRAM model with a
// retry queue for backpressure, the DRAM image and architectural stores,
// the LLC hook, the compressor, and stats.
type base struct {
	name string
	d    *dram.DRAM
	img  *mem.Store // what DRAM actually holds
	arch *mem.Store // last value written per line (ground truth)
	llc  LLC
	alg  compress.Algorithm
	st   Stats

	retry       []*dram.Request
	outstanding int // issued-but-not-completed reads + queued work

	decompLat int64 // decompression latency in CPU cycles

	// scr is the controller's compression scratch arena; see type scratch.
	scr scratch

	// inflight coalesces concurrent reads of the same DRAM location: one
	// burst serves every waiter. This is what turns a compressed group
	// into real bandwidth savings even when all of its members miss
	// within one ROB window — their fills share a single access to the
	// group's home. It maps a location with a read burst in flight to
	// the burst's context in dones; later reads of the location queue on
	// that context as waiters.
	inflight slots.Index

	// dones is the slot table of issue's completion contexts, numbered
	// by position; freeDones holds the ones not in use. Both grow to the
	// peak number of concurrently outstanding requests and waiters, so a
	// steady-state issue allocates nothing.
	dones     []*issueDone
	freeDones []*issueDone

	// reader continues a scheme's reads (see readOp); freeReads recycles
	// their contexts.
	reader    reader
	freeReads []*readOp

	// tr receives DRAM-request and fill events; nil (the default) is the
	// disabled tracer and costs one branch per event.
	tr *obs.Tracer
}

// issueDone is issue's pooled completion context: the state its OnComplete
// wrapper needs, plus fn, the method value handed to the DRAM request —
// built once per context so steady-state issue allocates nothing. A read
// burst's context also heads the intrusive list of the reads coalesced
// onto it, each waiting in a context of its own.
type issueDone struct {
	b     *base
	id    int // position in b.dones
	a     mem.LineAddr
	write bool
	done  Done
	fn    Done

	head, tail *issueDone // coalesced waiters, in arrival order
	next       *issueDone // the next waiter after this one
}

// complete fires at burst completion: the burst's own callback, then —
// for a read — each coalesced waiter in arrival order. A read that
// arrives during the burst's own callback still joins this burst; the
// location leaves the in-flight table before the waiters run, so a read
// they issue starts a burst of its own. Each context returns to the pool
// before the callbacks that follow it run.
func (x *issueDone) complete(c int64) {
	b := x.b
	b.outstanding--
	if x.done != nil {
		x.done(c)
	}
	w := x.head
	if !x.write {
		b.inflight.Delete(x.a)
	}
	b.releaseDone(x)
	for w != nil {
		next, done := w.next, w.done
		b.releaseDone(w)
		b.outstanding--
		if done != nil {
			done(c)
		}
		w = next
	}
}

// acquireDone checks a context out of the pool (or mints one).
func (b *base) acquireDone(a mem.LineAddr, write bool, done Done) *issueDone {
	var x *issueDone
	if n := len(b.freeDones); n > 0 {
		x = b.freeDones[n-1]
		b.freeDones = b.freeDones[:n-1]
	} else {
		x = &issueDone{b: b, id: len(b.dones)}
		x.fn = x.complete
		b.dones = append(b.dones, x)
	}
	x.a, x.write, x.done = a, write, done
	return x
}

// releaseDone returns a context to the pool.
func (b *base) releaseDone(x *issueDone) {
	x.done, x.head, x.tail, x.next = nil, nil, nil, nil
	b.freeDones = append(b.freeDones, x)
}

// readState is what a scheme's read carries from one DRAM completion to
// the next. Each scheme uses the fields it needs; stage tells a
// multi-step read where it is.
type readState struct {
	core      int
	a, home   mem.LineAddr
	level     cache.Level
	beats     int
	stage     uint8
	tried     uint8 // PTMC: candidate homes probed, by group position
	counted   bool  // PTMC: the LLP's prediction is being scored
	firstTry  bool  // PTMC: this probe is the demand access
	coalesced bool  // the probe joined a burst already in flight
	done      Done
}

// reader is a scheme's side of a read: step continues the read in state
// r when the DRAM access it waited on completes at cycle c.
type reader interface {
	step(r readState, c int64)
}

// readOp is a read's pooled completion context: the pattern of issueDone
// and cpu's per-slot callbacks. fn, built once per context, is what the
// scheme hands to issue (or chargeMeta) in place of a per-read closure;
// when it fires, the context returns to the pool and the scheme's step
// runs with the state it held.
type readOp struct {
	r  readState
	b  *base
	fn Done
}

func (x *readOp) fire(c int64) {
	r := x.r
	x.r = readState{}
	x.b.freeReads = append(x.b.freeReads, x)
	x.b.reader.step(r, c)
}

// pend checks out a context holding r.
func (b *base) pend(r readState) *readOp {
	var x *readOp
	if n := len(b.freeReads); n > 0 {
		x = b.freeReads[n-1]
		b.freeReads = b.freeReads[:n-1]
	} else {
		x = &readOp{b: b}
		x.fn = x.fire
	}
	x.r = r
	return x
}

// issueRead issues a read burst of beats at home (0 is a full line) for
// the read in state r, whose step runs at the burst's completion. The
// context records whether the burst coalesced.
func (b *base) issueRead(r readState, home mem.LineAddr, beats int, k kind, now int64) {
	x := b.pend(r)
	x.r.coalesced = b.issueBurst(home, false, beats, k, now, x.fn)
}

func newBase(name string, d *dram.DRAM, img, arch *mem.Store, llc LLC) base {
	return base{
		name: name, d: d, img: img, arch: arch, llc: llc,
		alg:       compress.Hybrid{},
		decompLat: DecompressCycles,
	}
}

func (b *base) Name() string { return b.name }

// InitLine implements Controller for every scheme whose initial image is
// the raw value at the line's own address and whose per-line state starts
// cold; PTMC overrides it for marker-collision handling.
func (b *base) InitLine(a mem.LineAddr) { b.img.Write(a, b.archLineSlot(a, 0)) }

// InitScreen implements Controller: a raw-image scheme never needs to see
// a first-touched line.
func (b *base) InitScreen(mem.LineAddr, mem.LineBound) bool { return false }

// SetDecompressCycles overrides the decompression latency (ablations).
func (b *base) SetDecompressCycles(n int64) { b.decompLat = n }

// SetTracer attaches (or, with nil, detaches) an event tracer.
func (b *base) SetTracer(t *obs.Tracer) { b.tr = t }
func (b *base) Stats() *Stats           { return &b.st }
func (b *base) DRAM() *dram.DRAM        { return b.d }
func (b *base) Pending() int            { return b.outstanding + len(b.retry) + b.d.QueueDepth() }
func (b *base) account(k kind)          { b.accountN(k, 1) }
func (b *base) accountN(k kind, n uint64) {
	switch k {
	case kDemandRead:
		b.st.DemandReads += n
	case kMispredictRead:
		b.st.MispredictReads += n
	case kMetadataRead:
		b.st.MetadataReads += n
	case kPrefetchRead:
		b.st.PrefetchReads += n
	case kDirtyWrite:
		b.st.DirtyWrites += n
	case kCleanCompWrite:
		b.st.CleanCompIntoW += n
	case kInvalidateWrite:
		b.st.Invalidates += n
	case kMetadataWrite:
		b.st.MetadataWrites += n
	}
}

// issue sends one full-line DRAM request (see issueBurst).
func (b *base) issue(a mem.LineAddr, write bool, k kind, now int64, done Done) (coalesced bool) {
	return b.issueBurst(a, write, 0, k, now, done)
}

// issueBurst sends one DRAM request of beats bus beats (0 is a full line;
// MemZip's reduced bursts are shorter), retrying through the backpressure
// queue. done (reads only) fires at burst completion. Reads to a location
// that already has a burst in flight coalesce onto it for free; issueBurst
// reports that, because a coalesced *demand* read is exactly the bandwidth
// benefit of co-located compression (the Dynamic-PTMC "+1" event).
func (b *base) issueBurst(a mem.LineAddr, write bool, beats int, k kind, now int64, done Done) (coalesced bool) {
	if !write {
		if id, in := b.inflight.Get(a); in {
			b.st.CoalescedReads++
			b.outstanding++
			p, w := b.dones[id], b.acquireDone(a, false, done)
			if p.tail == nil {
				p.head = w
			} else {
				p.tail.next = w
			}
			p.tail = w
			return true
		}
	}
	b.account(k)
	if b.tr != nil {
		ek := obs.KindDRAMRead
		if write {
			ek = obs.KindDRAMWrite
		}
		b.tr.Emit(ek, now, 0, 0, uint64(a), int64(k))
	}
	req := b.d.AcquireRequest()
	req.Addr, req.Write, req.Beats = a, write, beats
	if done != nil || !write {
		b.outstanding++
		x := b.acquireDone(a, write, done)
		if !write {
			b.inflight.Put(a, x.id)
		}
		req.OnComplete = x.fn
	}
	if !b.d.Enqueue(req, now) {
		b.retry = append(b.retry, req)
	}
	return false
}

// chargeMeta issues the DRAM traffic of one metadata-cache transaction and
// calls then once the required metadata (if any) has arrived.
func (b *base) chargeMeta(tr metadata.Traffic, now int64, then Done) {
	if tr.NeedWrite {
		b.issue(tr.WriteAddr, true, kMetadataWrite, now, nil)
	}
	if tr.NeedRead {
		b.issue(tr.ReadAddr, false, kMetadataRead, now, then)
		return
	}
	if then != nil {
		then(now)
	}
}

// NextEventCycle implements Controller with the DRAM model's aggregated
// per-channel wake. A retry backlog adds no earlier event: a rejected
// request only re-admits after its full target queue loses an entry, which
// happens exclusively at an issue inside a scheduled DRAM wake — and an
// issue always reschedules that channel for the very next bus cycle, where
// the tick's drain (which runs before d.Tick) admits the request at exactly
// the cycle a per-tick drain would have.
func (b *base) NextEventCycle(now int64) int64 {
	return b.d.NextEventCycle()
}

// SkippedTicks implements Controller: it credits the DRAM idle
// accounting, plus — while a retry backlog exists — the one failed
// re-enqueue attempt per tick a per-cycle loop's drain would have counted.
// Those attempts provably fail (no channel issues inside a skipped span,
// so the full target queue stays full), which is why skipping them is
// sound; crediting RetriesFull keeps the stats byte-identical anyway.
func (b *base) SkippedTicks(n int64) {
	if n <= 0 {
		return
	}
	if len(b.retry) > 0 {
		b.d.Stats.RetriesFull += uint64(n)
	}
	b.d.SkippedTicks(n)
}

// Tick drains the retry queue and advances DRAM.
func (b *base) Tick(now int64) {
	for len(b.retry) > 0 {
		if !b.d.Enqueue(b.retry[0], now) {
			break
		}
		b.retry = b.retry[1:]
	}
	b.d.Tick(now)
}

// scratch is the per-controller compression arena. The simulator drives
// each controller from a single goroutine and every blob or decoded line
// is consumed (sealed + written to the image, or installed in the LLC)
// before the next eviction or fill reuses the arena, so the hot
// compress/decompress paths run with zero heap allocations:
//
//   - groupBuf backs every CompressGroup encoding of one eviction; it is
//     reset (length, not capacity) at the start of each planEviction and
//     grows once to the eviction's worst case, after which writebacks
//     allocate nothing;
//   - lineBuf/lineRefs receive group decodes on the fill path
//     (DecompressGroupInto), replacing four make([]byte, 64) per
//     compressed fill.
type scratch struct {
	groupBuf []byte
	lineBuf  [4][compress.LineSize]byte
	lineRefs [4][]byte
	lines    [4][]byte // gathers input line refs for CompressGroup
	// archBufs backs archLineSlot: up to one architectural line per group
	// slot may be synthesized into scratch by the arch store's lazy fill
	// (mem.Store.ReadNoAlloc) and must stay valid while the whole group is
	// gathered for compression.
	archBufs [4][mem.LineSize]byte
	// Eviction-planning arenas. planEviction's unit list, per-unit member
	// lists, and evictee list are backed here: a plan never exceeds four
	// units (one per group slot) nor four members in total, because every
	// line it touches lies within the evictee's 4-line group. Valid until
	// the next planEviction call; callers consume them within Evict.
	evUnits    [4]storeUnit
	evMembers  [4][4]evictee
	evEvictees [4]evictee
	staleBuf   [4]mem.LineAddr
	imgBuf     [mem.LineSize]byte // backs imgLine
}

// imgLine returns what DRAM holds at location a, without storing it: a
// line the image has never stored is synthesized into scr.imgBuf (mem.Store.
// ReadNoAlloc), so an image line is stored only when a controller writes
// it. Aliasing rule: the slice is valid until the next imgLine call or the
// next image write. install can run Evict synchronously (the LLC routes its
// victim back), and Evict writes the image, so a fill checks or decodes
// its data before it installs anything.
func (b *base) imgLine(a mem.LineAddr) []byte { return b.img.ReadNoAlloc(a, b.scr.imgBuf[:]) }

// decodeUnit decompresses an n-member unit into the scratch line buffers.
// The returned slices alias the arena and are valid until the next
// decodeUnit call on this controller. An undecodable unit is a detected
// fault (ErrUndecodable class), not silent corruption: it is counted and
// decodeUnit returns nil, and the caller serves the demand with fillLine
// on the architectural value — so demand fills still sum across the
// compressed/uncompressed categories under injection, and IntegrityErrs
// stays reserved for wrong *decoded* values.
func (b *base) decodeUnit(blob []byte, n int) [][]byte {
	for i := 0; i < n; i++ {
		b.scr.lineRefs[i] = b.scr.lineBuf[i][:]
	}
	if err := compress.DecompressGroupInto(b.alg, b.scr.lineRefs[:n], blob, n); err != nil {
		b.st.UndecodableUnits++
		return nil
	}
	return b.scr.lineRefs[:n]
}

// compressGroup encodes lines into the arena within budget; the returned
// blob aliases the arena and stays valid for the rest of this eviction
// (the arena is only reset by the next planEviction).
func (b *base) compressGroup(lines [][]byte, budget int) ([]byte, bool) {
	start := len(b.scr.groupBuf)
	grown, fits := compress.AppendCompressGroup(b.alg, b.scr.groupBuf, lines, budget)
	b.scr.groupBuf = grown
	if !fits {
		return nil, false
	}
	return grown[start:], true
}

// archLineSlot returns the architectural (ground-truth) value of line a.
// It goes through mem.Store.ReadNoAlloc with per-slot scratch, so a line
// the architectural store has never stored is synthesized into scratch
// instead of being stored, and up to four lines of one compression group
// can be held simultaneously. slot is the line's position in the group
// being gathered (0-3); a single line uses slot 0.
func (b *base) archLineSlot(a mem.LineAddr, slot int) []byte {
	return b.arch.ReadNoAlloc(a, b.scr.archBufs[slot][:])
}

// checkIntegrity compares a decoded fill against the architectural value;
// mismatches indicate a broken memory image and are counted (tests assert
// zero).
func (b *base) checkIntegrity(a mem.LineAddr, got []byte) {
	want := b.arch.ReadNoAlloc(a, b.scr.archBufs[0][:])
	for i := range got {
		if got[i] != want[i] {
			b.st.IntegrityErrs++
			return
		}
	}
}

// fillLine is the uncompressed fill: line a arrives as data, is checked
// against its architectural value, installs at its own location, and
// completes the demand.
func (b *base) fillLine(core int, a mem.LineAddr, data []byte, now int64, done Done) {
	b.st.FillsUncompressed++
	b.checkIntegrity(a, data)
	b.install(core, a, false, false, cache.Uncompressed, now)
	done(now)
}

// fillUnit is the compressed fill: the unit whose members, from first,
// decoded to lines arrives decompLat after now. Every member not already
// in the LLC (whose copy may be newer) is checked and installed at level —
// the demand line a as a fill, each neighbor as a free prefetch — and then
// the demand completes.
func (b *base) fillUnit(core int, a, first mem.LineAddr, level cache.Level, lines [][]byte, now int64, done Done) {
	b.st.FillsCompressed++
	c := now + b.decompLat
	for i, l := range lines {
		m := first + mem.LineAddr(i)
		if _, in := b.llc.Probe(m); in {
			continue
		}
		b.checkIntegrity(m, l)
		if m != a {
			b.st.FreeInstalls++
		}
		b.install(core, m, false, m != a, level, c)
	}
	done(c)
}

// countUnit counts one storage unit written at level (Groups4, Groups2 or
// SinglesWrit).
func (b *base) countUnit(level cache.Level) {
	switch level {
	case cache.Comp4:
		b.st.Groups4++
	case cache.Comp2:
		b.st.Groups2++
	default:
		b.st.SinglesWrit++
	}
}

// install puts a fill into the LLC.
func (b *base) install(core int, a mem.LineAddr, dirty, prefetch bool, level cache.Level, now int64) {
	if b.tr != nil {
		b.tr.Emit(obs.KindFill, now, 0, core, uint64(a), int64(level))
	}
	b.llc.InstallFill(core, a, cache.Entry{
		Dirty:    dirty,
		Prefetch: prefetch,
		Level:    level,
		Core:     uint8(core),
	}, now)
}
