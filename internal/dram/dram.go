// Package dram models a DDR4-like main memory at the fidelity USIMM
// provides to the paper: channels with shared data buses, ranks and banks
// with open-row state, FR-FCFS scheduling, read-priority with write-drain
// watermarks, and bank timing constraints (tRCD/tRP/tCAS/tRAS, burst
// occupancy). Bandwidth contention — the quantity PTMC lives or dies by —
// emerges from data-bus occupancy per 64-byte burst.
//
// All externally visible times are CPU cycles; the DRAM command clock runs
// once every Config.BusRatio CPU cycles.
package dram

import (
	"fmt"

	"ptmc/internal/mem"
)

// Config describes the memory organization and timing. Timing fields are in
// memory-controller (bus) cycles, as datasheets quote them.
type Config struct {
	Channels        int
	RanksPerChannel int
	BanksPerRank    int
	RowLines        int // 64-byte lines per row buffer (128 => 8 KB rows)

	TRCD   int // activate -> column command
	TRP    int // precharge
	TCAS   int // column command -> first data
	TRAS   int // activate -> precharge minimum
	TBurst int // data-bus occupancy per 64B line (BL8 on a 64-bit bus = 4)

	ReadQCap     int // per-channel read queue capacity
	WriteQCap    int // per-channel write queue capacity
	WriteDrainHi int // enter write-drain at this write-queue depth
	WriteDrainLo int // leave write-drain at this depth

	BusRatio int // CPU cycles per memory-bus cycle (3.2 GHz / 0.8 GHz = 4)
}

// DDR4 returns the paper's Table I configuration: 2 channels, 2 ranks,
// 800 MHz bus (DDR 1.6 GT/s), DDR4-1600-class timings (13.75-13.75-13.75-35 ns).
func DDR4() Config {
	return Config{
		Channels:        2,
		RanksPerChannel: 2,
		BanksPerRank:    8,
		RowLines:        128,
		TRCD:            11,
		TRP:             11,
		TCAS:            11,
		TRAS:            28,
		TBurst:          4,
		ReadQCap:        32,
		WriteQCap:       32,
		WriteDrainHi:    28,
		WriteDrainLo:    12,
		BusRatio:        4,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Channels <= 0 || c.Channels&(c.Channels-1) != 0:
		return fmt.Errorf("dram: channels must be a positive power of two, got %d", c.Channels)
	case c.RanksPerChannel <= 0, c.BanksPerRank <= 0:
		return fmt.Errorf("dram: ranks/banks must be positive")
	case c.RowLines < 4:
		return fmt.Errorf("dram: RowLines must be >= 4 (one compression group)")
	case c.BusRatio <= 0:
		return fmt.Errorf("dram: BusRatio must be positive")
	case c.WriteDrainLo >= c.WriteDrainHi:
		return fmt.Errorf("dram: WriteDrainLo must be < WriteDrainHi")
	case c.WriteDrainHi > c.WriteQCap:
		return fmt.Errorf("dram: WriteDrainHi must be <= WriteQCap")
	}
	return nil
}

// Request is one transfer. OnComplete (optional, reads normally set it)
// fires at the CPU cycle the data burst finishes. Beats is the burst length
// in 8-byte bus beats: 0 or 8 is a full 64-byte line; smaller values model
// reduced-burst transfers (MemZip-style designs on non-commodity DIMMs).
type Request struct {
	Addr       mem.LineAddr
	Write      bool
	Beats      int
	OnComplete func(now int64)

	enq        int64 // CPU cycle the request entered the queue
	completeAt int64

	// Geometry cached at Enqueue so the per-tick FR-FCFS scans load two
	// fields instead of re-deriving channel/bank/row for every queued
	// request on every bus cycle.
	bankIdx int32
	row     int64
}

// Stats counts DRAM events. Reads/Writes are bursts; RowHits counts column
// accesses that hit an open row; Activates counts row activations.
type Stats struct {
	Reads        uint64
	Writes       uint64
	RowHits      uint64
	Activates    uint64
	Precharges   uint64
	BusBusy      uint64 // CPU cycles of data-bus occupancy, summed over channels
	ReadLatency  uint64 // summed CPU cycles from enqueue to data, reads only
	ReadCount    uint64
	DrainEnters  uint64
	RetriesFull  uint64 // enqueue rejections due to full queues
	MaxReadQ     int
	MaxWriteQ    int
	IdleChannels uint64
}

type bank struct {
	openRow int64 // -1 when closed
	freeAt  int64 // CPU cycle the bank can accept a new column access
	actAt   int64 // CPU cycle of last activation (for tRAS)
}

type channel struct {
	banks     []bank
	readQ     []*Request
	writeQ    []*Request
	busFreeAt int64
	inflight  []*Request // issued reads waiting for completion callback
	draining  bool

	// wakeAt (engine mode only) is the next CPU cycle at which ticking
	// this channel can change its state: the earliest completion, the
	// earliest cycle a queued request's bank frees up, or the tick after
	// an enqueue. Between wakes the channel's queues and banks are
	// provably static, so engine mode skips its per-bank scans.
	wakeAt int64
}

// DRAM is the timing model. Tick must be called every memory-bus cycle
// (i.e. every BusRatio CPU cycles) with the current CPU cycle.
type DRAM struct {
	cfg   Config
	chans []*channel
	Stats Stats

	// decode shift/mask precomputed
	chanMask uint64
	chanBits uint
	colBits  uint
	bankBits uint
	rankBits uint
	tRCD     int64
	tRP      int64
	tCAS     int64
	tRAS     int64
	tBurst   int64

	// O(1) occupancy counters: Tick's empty fast path and the skipped-tick
	// idle accounting must not scan channels to learn nothing is
	// pending.
	queuedTotal   int // requests sitting in read/write queues
	inflightTotal int // issued requests awaiting completion
	emptyQChans   int // channels whose read AND write queues are empty

	// Engine-mode state (SetEngineMode). lastTick marks the bus cycle
	// currently (or most recently) being processed and tickChanIdx the
	// channel index the tick loop is at (-1 outside Tick); together they
	// tell Enqueue whether a new request is still visible to this cycle's
	// scan or must wake its channel at the next one. nextWake caches the
	// minimum per-channel wakeAt so NextEventCycle is O(1): Tick recomputes
	// it after the channel sweep and wakeOnEnqueue lowers it directly — the
	// only two places channel wakes move.
	engine      bool
	lastTick    int64
	tickChanIdx int
	nextWake    int64

	// freeReqs pools completed Requests for AcquireRequest. Ownership: a
	// request Enqueue admits belongs to the model and is released here
	// right after its completion callback fires (immediately after issue
	// for writes nobody waits on); a rejected Enqueue leaves ownership with
	// the caller, whose retry queue holds it until a later Enqueue admits
	// it. Requests built with &Request{} work identically and simply join
	// the pool once done.
	freeReqs []*Request
}

// farFuture is the wake sentinel for "no internally scheduled event".
const farFuture = int64(1) << 62

// New builds a DRAM model from cfg.
func New(cfg Config) (*DRAM, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &DRAM{cfg: cfg}
	for i := 0; i < cfg.Channels; i++ {
		ch := &channel{banks: make([]bank, cfg.RanksPerChannel*cfg.BanksPerRank)}
		for b := range ch.banks {
			ch.banks[b].openRow = -1
		}
		d.chans = append(d.chans, ch)
	}
	d.emptyQChans = cfg.Channels
	// One bus period before cycle 0: a request enqueued before the first
	// Tick(0) must bid that tick (lastTick + BusRatio = 0), not a later one.
	d.lastTick = -int64(cfg.BusRatio)
	d.tickChanIdx = -1
	d.chanMask = uint64(cfg.Channels - 1)
	d.chanBits = log2(uint64(cfg.Channels))
	d.colBits = log2(uint64(cfg.RowLines))
	d.bankBits = log2(uint64(cfg.BanksPerRank))
	d.rankBits = log2(uint64(cfg.RanksPerChannel))
	r := int64(cfg.BusRatio)
	d.tRCD, d.tRP, d.tCAS = int64(cfg.TRCD)*r, int64(cfg.TRP)*r, int64(cfg.TCAS)*r
	d.tRAS, d.tBurst = int64(cfg.TRAS)*r, int64(cfg.TBurst)*r
	return d, nil
}

// Config returns the configuration the model was built with.
func (d *DRAM) Config() Config { return d.cfg }

// AcquireRequest returns a zeroed Request, reusing completed ones. The
// controller issue paths acquire every request here, which makes their
// steady state allocate no request headers (the pool is bounded by the
// maximum number of simultaneously queued + inflight requests).
func (d *DRAM) AcquireRequest() *Request {
	if n := len(d.freeReqs); n > 0 {
		r := d.freeReqs[n-1]
		d.freeReqs = d.freeReqs[:n-1]
		*r = Request{}
		return r
	}
	return &Request{}
}

// release returns a finished request to the pool. Callers must be done
// with every field; the next AcquireRequest zeroes it.
func (d *DRAM) release(r *Request) {
	d.freeReqs = append(d.freeReqs, r)
}

func log2(v uint64) uint {
	var n uint
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// decode splits a line address into channel, bank index (rank*banks+bank),
// and row id. Channels interleave at 256-byte granularity — one 4-line
// compression group per channel — rather than per line: TMC co-locates a
// group at its base address (low two line-address bits zero), and per-line
// interleaving would funnel every compressed-group access onto channel 0.
func (d *DRAM) decode(a mem.LineAddr) (ch int, bankIdx int, row int64) {
	v := uint64(a)
	v >>= 2 // line within compression group: same channel, row, bank
	ch = int(v & d.chanMask)
	v >>= d.chanBits
	v >>= d.colBits - 2 // remaining column bits within the row
	bank := v & (1<<d.bankBits - 1)
	v >>= d.bankBits
	rank := v & (1<<d.rankBits - 1)
	v >>= d.rankBits
	return ch, int(rank<<d.bankBits | bank), int64(v)
}

// Enqueue admits a request, returning false if the target queue is full
// (the caller must retry later). now is the current CPU cycle.
func (d *DRAM) Enqueue(r *Request, now int64) bool {
	ch, b, row := d.decode(r.Addr)
	r.bankIdx, r.row = int32(b), row
	c := d.chans[ch]
	if r.Write {
		if len(c.writeQ) >= d.cfg.WriteQCap {
			d.Stats.RetriesFull++
			return false
		}
		r.enq = now
		c.writeQ = append(c.writeQ, r)
		if len(c.writeQ) > d.Stats.MaxWriteQ {
			d.Stats.MaxWriteQ = len(c.writeQ)
		}
	} else {
		if len(c.readQ) >= d.cfg.ReadQCap {
			d.Stats.RetriesFull++
			return false
		}
		r.enq = now
		c.readQ = append(c.readQ, r)
		if len(c.readQ) > d.Stats.MaxReadQ {
			d.Stats.MaxReadQ = len(c.readQ)
		}
	}
	if len(c.readQ)+len(c.writeQ) == 1 {
		d.emptyQChans--
	}
	d.queuedTotal++
	if d.engine {
		d.wakeOnEnqueue(c, ch)
	}
	return true
}

// wakeOnEnqueue schedules the channel's next scan after an admit,
// reproducing the serial loop's visibility rules. Visibility is a property
// of the *program point* of the Enqueue call, never of the request's cycle
// stamp: the miss path stamps requests with future completion-latency
// cycles (now > the cycle actually executing), yet the serial loop's
// per-tick scan sees every queued request immediately. So: a request
// enqueued from inside the tick sweep — a completion callback issuing an
// eviction or retry — is visible to channels the in-order loop has not
// reached yet (ch > tickChanIdx) this very tick, and to earlier channels
// at the next one; a request enqueued between ticks (core-driven) is
// visible to the next executed tick, which is never later than lastTick +
// BusRatio. A bid that lands in the engine's past is harmless — the run
// loop degrades to serial per-cycle stepping until the wake is consumed —
// while a bid later than the serial scan would allow is a determinism bug
// (the channel sleeps through an issue the serial loop performs).
func (d *DRAM) wakeOnEnqueue(c *channel, ch int) {
	r := int64(d.cfg.BusRatio)
	var nt int64
	if d.tickChanIdx >= 0 && ch > d.tickChanIdx {
		nt = d.lastTick // tick loop reaches this channel later this cycle
	} else {
		nt = d.lastTick + r
	}
	if nt < c.wakeAt {
		c.wakeAt = nt
	}
	if c.wakeAt < d.nextWake {
		d.nextWake = c.wakeAt
	}
}

// QueueDepth returns total queued requests (reads+writes+inflight), for
// idle checks and the dram.queue_depth gauge.
func (d *DRAM) QueueDepth() int {
	return d.queuedTotal + d.inflightTotal
}

// SetEngineMode enables the wake bookkeeping the simulator's run loop
// relies on (sim.New always turns it on): Tick then skips channels whose
// next possible state change lies in the future, and NextEventCycle is the
// O(1) cached aggregate. Left off, the model scans every channel on every
// tick — the reference behavior the simulator's determinism tests compare
// against. Observable behavior (stats, completion order, timing) is
// identical in both modes — a tested invariant.
func (d *DRAM) SetEngineMode(on bool) { d.engine = on }

// Tick advances the model by one memory-bus cycle at CPU cycle now: fires
// completions and issues at most one new request per channel.
func (d *DRAM) Tick(now int64) {
	if d.queuedTotal == 0 && d.inflightTotal == 0 {
		// Nothing queued and nothing in flight anywhere: every channel
		// scan would only find empty queues. Skip the scans; the idle
		// accounting must match what the full loop would have counted —
		// one idle event per channel per tick.
		d.Stats.IdleChannels += uint64(len(d.chans))
		return
	}
	if d.engine {
		d.lastTick = now
		for i, c := range d.chans {
			if c.wakeAt > now {
				// Asleep: queues and banks are static until wakeAt. A
				// channel with empty queues still counts idle (matching
				// the serial per-tick accounting); one merely waiting on
				// busy banks counts nothing, as in the serial scan.
				if len(c.readQ)+len(c.writeQ) == 0 {
					d.Stats.IdleChannels++
				}
				continue
			}
			d.tickChanIdx = i
			// Reset before processing so enqueue bids made during this
			// channel's own completion callbacks survive into reschedule.
			c.wakeAt = farFuture
			q, issued := d.tickChannel(c, now)
			d.reschedule(c, q, issued, now)
		}
		d.tickChanIdx = -1
		// Re-aggregate the cached minimum wake: the sweep (and any enqueue
		// bids its callbacks made) is the only place wakes can have risen.
		w := farFuture
		for _, c := range d.chans {
			if c.wakeAt < w {
				w = c.wakeAt
			}
		}
		d.nextWake = w
		return
	}
	for _, c := range d.chans {
		d.tickChannel(c, now)
	}
}

// tickChannel is one channel's slice of a bus cycle: completions, drain
// hysteresis, then at most one FR-FCFS issue. Completion callbacks may
// enqueue new requests (eviction writebacks, mispredict retries) onto any
// channel mid-loop; processing channels strictly in index order is what
// makes that interleaving deterministic, so engine mode reuses this exact
// routine and only skips the channels that provably sleep. It returns the
// queue the scheduler selected (nil when both were empty) and whether a
// request issued, which is exactly what reschedule needs to bound the next
// cycle this channel can make progress.
func (d *DRAM) tickChannel(c *channel, now int64) (q *[]*Request, issued bool) {
	// Completions.
	if len(c.inflight) > 0 {
		kept := c.inflight[:0]
		for _, r := range c.inflight {
			if r.completeAt <= now {
				d.inflightTotal--
				if r.OnComplete != nil {
					r.OnComplete(now)
				}
				d.release(r)
			} else {
				kept = append(kept, r)
			}
		}
		c.inflight = kept
	}

	// Write-drain mode hysteresis.
	if !c.draining && len(c.writeQ) >= d.cfg.WriteDrainHi {
		c.draining = true
		d.Stats.DrainEnters++
	}
	if c.draining && len(c.writeQ) <= d.cfg.WriteDrainLo {
		c.draining = false
	}

	isWrite := false
	switch {
	case c.draining:
		q, isWrite = &c.writeQ, true
	case len(c.readQ) > 0:
		q = &c.readQ
	case len(c.writeQ) > 0:
		q, isWrite = &c.writeQ, true // opportunistic write when no reads
	default:
		d.Stats.IdleChannels++
		return nil, false
	}
	return q, d.issueFRFCFS(c, q, isWrite, now)
}

// issueFRFCFS picks the oldest row-hit request whose bank is free; if none,
// the oldest request with a free bank. At most one request issues per call;
// it reports whether one did.
func (d *DRAM) issueFRFCFS(c *channel, q *[]*Request, isWrite bool, now int64) bool {
	pick := -1
	for i, r := range *q {
		bk := &c.banks[r.bankIdx]
		if bk.freeAt > now {
			continue
		}
		if bk.openRow == r.row {
			pick = i
			break // oldest row hit wins
		}
		if pick < 0 {
			pick = i // oldest issuable as fallback
		}
	}
	if pick < 0 {
		return false
	}
	r := (*q)[pick]
	*q = append((*q)[:pick], (*q)[pick+1:]...)
	d.queuedTotal--
	if len(c.readQ)+len(c.writeQ) == 0 {
		d.emptyQChans++
	}
	d.issue(c, r, isWrite, now)
	return true
}

// reschedule computes the channel's next wake after its slice of a tick:
// the earliest inflight completion, plus — when work is queued — either the
// very next bus cycle (a request just issued, so the queue head may have
// changed) or the first cycle a selected-queue bank frees up (nothing was
// issuable, and the scheduler provably re-selects the same queue until its
// state changes). Enqueue bids recorded on c.wakeAt during this channel's
// own callbacks are folded in via min. Completions and bank frees wake the
// channel at the bus tick that observes them; rounding up to a tick is
// monotone, so the earliest of them is rounded once.
func (d *DRAM) reschedule(c *channel, q *[]*Request, issued bool, now int64) {
	w := c.wakeAt
	next := farFuture // earliest completion or bank free, unrounded
	for _, r := range c.inflight {
		next = min(next, r.completeAt)
	}
	if len(c.readQ)+len(c.writeQ) > 0 {
		switch {
		case issued:
			w = min(w, now+int64(d.cfg.BusRatio))
		case q != nil:
			// Every candidate's bank was busy; queues, drain state, and the
			// selection they imply are static until a bank frees or an
			// enqueue bids its own wake.
			for _, r := range *q {
				next = min(next, c.banks[r.bankIdx].freeAt)
			}
		}
	}
	if next < farFuture {
		w = min(w, d.busTickAtOrAfter(next))
	}
	c.wakeAt = w
}

// busTickAtOrAfter rounds a CPU cycle up to the next bus-cycle boundary —
// the earliest Tick that can observe an event at cycle t.
func (d *DRAM) busTickAtOrAfter(t int64) int64 {
	r := int64(d.cfg.BusRatio)
	return (t + r - 1) / r * r
}

// NextEventCycle returns the earliest CPU cycle at which ticking the model
// can change any state — the minimum channel wake — or farFuture when every
// channel is fully idle. Engine mode only: it is the cached aggregate (O(1),
// recomputed per tick sweep), and outside engine mode the wake bookkeeping
// is not maintained.
func (d *DRAM) NextEventCycle() int64 {
	return d.nextWake
}

// SkippedTicks credits idle-channel accounting for n whole bus cycles the
// run loop proved eventless and skipped. Queues are static while every
// channel sleeps, so each skipped tick would have counted exactly the
// channels whose queues are empty — no more, no less.
func (d *DRAM) SkippedTicks(n int64) {
	if n > 0 {
		d.Stats.IdleChannels += uint64(n) * uint64(d.emptyQChans)
	}
}

// issue performs the lumped command sequence for one request and reserves
// bank and bus time.
func (d *DRAM) issue(c *channel, r *Request, isWrite bool, now int64) {
	bk := &c.banks[r.bankIdx]
	row := r.row
	start := now
	if bk.freeAt > start {
		start = bk.freeAt
	}
	var lat int64
	switch {
	case bk.openRow == row:
		lat = d.tCAS
		d.Stats.RowHits++
	case bk.openRow == -1:
		lat = d.tRCD + d.tCAS
		bk.actAt = start
		d.Stats.Activates++
	default:
		// Precharge may not begin before tRAS after the last activate.
		if earliest := bk.actAt + d.tRAS; earliest > start {
			start = earliest
		}
		lat = d.tRP + d.tRCD + d.tCAS
		bk.actAt = start + d.tRP
		d.Stats.Activates++
		d.Stats.Precharges++
	}
	dataStart := start + lat
	if c.busFreeAt > dataStart {
		dataStart = c.busFreeAt
	}
	// Burst occupancy scales with the beat count (DDR: 2 beats per bus
	// cycle); a full 8-beat line occupies tBurst.
	burst := d.tBurst
	if r.Beats > 0 && r.Beats < 8 {
		burst = d.tBurst * int64(r.Beats+1) / 8
		if burst < int64(d.cfg.BusRatio) {
			burst = int64(d.cfg.BusRatio) // at least one bus cycle
		}
	}
	dataEnd := dataStart + burst
	c.busFreeAt = dataEnd
	// Column commands pipeline: the bank can accept its next column access
	// one tCCD (= tBurst) after this one's column command, not after the
	// data burst completes. This is what lets back-to-back row hits stream
	// at full bus bandwidth.
	bk.freeAt = dataStart - d.tCAS + d.tBurst
	bk.openRow = row
	d.Stats.BusBusy += uint64(burst)

	if isWrite {
		d.Stats.Writes++
		if r.OnComplete != nil {
			r.completeAt = dataEnd
			c.inflight = append(c.inflight, r)
			d.inflightTotal++
		} else {
			d.release(r) // fire-and-forget write: nobody waits, nobody holds it
		}
		return
	}
	d.Stats.Reads++
	d.Stats.ReadCount++
	d.Stats.ReadLatency += uint64(dataEnd - r.enq)
	r.completeAt = dataEnd
	c.inflight = append(c.inflight, r)
	d.inflightTotal++
}

// AvgReadLatency returns the mean CPU-cycle latency of completed reads.
func (s Stats) AvgReadLatency() float64 {
	if s.ReadCount == 0 {
		return 0
	}
	return float64(s.ReadLatency) / float64(s.ReadCount)
}

// RowHitRate returns the fraction of column accesses hitting an open row.
func (s Stats) RowHitRate() float64 {
	total := s.Reads + s.Writes
	if total == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(total)
}
