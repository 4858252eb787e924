// Package memctrl implements the memory-controller schemes the paper
// evaluates, from the uncompressed baseline to Dynamic-PTMC:
//
//	Uncompressed      — baseline everything is normalized to
//	NextLinePrefetch  — Table VI's comparison point
//	IdealTMC          — PTMC with oracle location and free maintenance
//	TableTMC          — TMC with a memory-resident metadata table + cache
//	MemZip            — variable-burst TMC on non-commodity DIMMs (§VII)
//	PTMC              — inline markers + LLP (static, always compress)
//	DynamicPTMC       — PTMC + set-sampled cost/benefit gating
//
// Every scheme moves real bytes: the DRAM image (compressed blobs, markers,
// inverted lines, Marker-IL tombstones) is materialized in a sparse store
// and decoded on every fill, so correctness is checked, not assumed.
package memctrl

import (
	"fmt"

	"ptmc/internal/cache"
	"ptmc/internal/compress"
	"ptmc/internal/dram"
	"ptmc/internal/mem"
	"ptmc/internal/obs"
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
	// InitLine establishes a line's initial uncompressed memory image
	// (first touch, before the measured window).
	InitLine(a mem.LineAddr)
	// Tick advances the controller and its DRAM by one bus cycle.
	Tick(now int64)
	// Pending reports outstanding work (drain loops).
	Pending() int
	// Stats exposes scheme accounting.
	Stats() *Stats
	// DRAM exposes the timing model (energy accounting, bus stats).
	DRAM() *dram.DRAM

	// InitLineReady is first-touch initialization with the line's value
	// already synthesized into its DRAM-image storage (data, obtained via
	// mem.Slab): it reports whether those raw bytes are a valid initial
	// image as-is, recording any derived per-line state. It returns false
	// when the line needs the full InitLine path (a PTMC marker collision
	// requiring LIT maintenance); the caller then runs InitLine on those
	// lines after the page's pass, in ascending address order.
	InitLineReady(a mem.LineAddr, data []byte) bool
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

	// inflightReads coalesces concurrent reads of the same DRAM location:
	// one burst serves every waiter. This is what turns a compressed
	// group into real bandwidth savings even when all of its members miss
	// within one ROB window — their fills share a single access to the
	// group's home.
	inflightReads map[mem.LineAddr][]Done

	// freeDones recycles issue's per-request completion contexts. The
	// completion wrapper needs (addr, write, done) at fire time; closing
	// over them allocated once per DRAM burst, which made issue one of
	// the simulator's hottest allocation sites. Pool size is bounded by
	// the peak number of concurrently outstanding requests.
	freeDones []*issueDone

	// tr receives DRAM-request and fill events; nil (the default) is the
	// disabled tracer and costs one branch per event.
	tr *obs.Tracer
}

// issueDone is issue's pooled completion context: the state its OnComplete
// wrapper needs, plus fn, the method value handed to the DRAM request —
// built once per context so steady-state issue allocates nothing.
type issueDone struct {
	b     *base
	a     mem.LineAddr
	write bool
	done  Done
	fn    Done
}

// complete is the pooled equivalent of issue's old per-request closure:
// same bookkeeping, same callback order. The context is recycled before
// the callbacks run (its fields are copied out first), so a done that
// issues further requests can reuse it immediately.
func (x *issueDone) complete(c int64) {
	b, a, write, done := x.b, x.a, x.write, x.done
	x.done = nil
	b.freeDones = append(b.freeDones, x)
	b.outstanding--
	if done != nil {
		done(c)
	}
	if !write {
		waiters := b.inflightReads[a]
		delete(b.inflightReads, a)
		for _, w := range waiters {
			b.outstanding--
			if w != nil {
				w(c)
			}
		}
	}
}

// acquireDone checks a context out of the pool (or mints one).
func (b *base) acquireDone(a mem.LineAddr, write bool, done Done) *issueDone {
	var x *issueDone
	if n := len(b.freeDones); n > 0 {
		x = b.freeDones[n-1]
		b.freeDones = b.freeDones[:n-1]
	} else {
		x = &issueDone{b: b}
		x.fn = x.complete
	}
	x.a, x.write, x.done = a, write, done
	return x
}

func newBase(name string, d *dram.DRAM, img, arch *mem.Store, llc LLC) base {
	return base{
		name: name, d: d, img: img, arch: arch, llc: llc,
		alg:           compress.Hybrid{},
		decompLat:     DecompressCycles,
		inflightReads: make(map[mem.LineAddr][]Done),
	}
}

func (b *base) Name() string { return b.name }

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

// issue sends one DRAM request, retrying through the backpressure queue.
// done (reads only) fires at burst completion. Reads to a location that
// already has a burst in flight coalesce onto it for free; issue reports
// that, because a coalesced *demand* read is exactly the bandwidth benefit
// of co-located compression (the Dynamic-PTMC "+1" event).
func (b *base) issue(a mem.LineAddr, write bool, k kind, now int64, done Done) (coalesced bool) {
	if !write {
		if waiters, in := b.inflightReads[a]; in {
			b.st.CoalescedReads++
			b.outstanding++
			b.inflightReads[a] = append(waiters, done)
			return true
		}
		b.inflightReads[a] = nil
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
	req.Addr, req.Write = a, write
	if done != nil || !write {
		b.outstanding++
		req.OnComplete = b.acquireDone(a, write, done).fn
	}
	if !b.d.Enqueue(req, now) {
		b.retry = append(b.retry, req)
	}
	return false
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
}

// decodeGroup decompresses an n-member unit into the scratch line buffers.
// The returned slices alias the arena and are valid until the next
// decodeGroup call on this controller.
func (b *base) decodeGroup(blob []byte, n int) ([][]byte, error) {
	for i := 0; i < n; i++ {
		b.scr.lineRefs[i] = b.scr.lineBuf[i][:]
	}
	if err := compress.DecompressGroupInto(b.alg, b.scr.lineRefs[:n], blob, n); err != nil {
		return nil, err
	}
	return b.scr.lineRefs[:n], nil
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

// archLine returns the architectural (ground-truth) value of a line.
func (b *base) archLine(a mem.LineAddr) []byte { return b.arch.Read(a) }

// archLineSlot is archLine for inspection paths (integrity checks, group
// gathers): it goes through mem.Store.ReadNoAlloc with per-slot scratch, so
// a line of a lazily-initialized, never-stored architectural page is
// synthesized into scratch instead of forcing the page to allocate, and up
// to four lines of one compression group can be held simultaneously. slot
// must be the line's position in the group being gathered (0-3).
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

var _ = fmt.Sprintf // keep fmt for debug builds
