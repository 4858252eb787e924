package main

import (
	"fmt"
	"os"
	"runtime"
	_ "unsafe" // go:linkname

	"ptmc"
	"ptmc/internal/cache"
	"ptmc/internal/compress"
	"ptmc/internal/core"
	"ptmc/internal/cpu"
	"ptmc/internal/dram"
	"ptmc/internal/mem"
	"ptmc/internal/memctrl"
	"ptmc/internal/obs"
	"ptmc/internal/vm"
	"ptmc/internal/workload"
)

// nanotime is the runtime's monotonic clock: one vDSO call, about half the
// cost of time.Now, which matters for the per-call spans around the
// workload source.
//
//go:linkname nanotime runtime.nanotime
func nanotime() int64

// traceCapacity bounds the controller event buffer of the traced run.
// The measured window of the largest workload emits well under this.
const traceCapacity = 8 << 20

// sampleCap bounds the evicted groups and filled lines kept for the codec
// and marker replays.
const sampleCap = 1 << 17

// layers is what a traced run reports: for every layer, its cost per
// operation from an in-place span or an isolated replay, the number of
// such operations the whole run performed, and the modelled statistics
// that layer owns. SelfS holds each layer's self time in seconds.
type layers struct {
	Values map[string]metric  `json:"values"`
	SelfS  map[string]float64 `json:"self_s"`
}

func (l *layers) set(name, unit string, v float64) { l.Values[name] = metric{Value: v, Unit: unit} }

// op is one captured memory instruction, in the order cores fetched them.
type op struct {
	vaddr uint64
	gap   int32
	core  uint8
	write bool
}

// pageInit is one first-touch page allocation, in allocation order.
type pageInit struct {
	core  int
	vpage uint64
}

// tracer owns the traced run's timing source wrappers and what they
// capture.
type tracer struct {
	parts []*workload.Workload
	ops   []op
	pages []pageInit

	nextNs, fillNs, mutateNs          int64
	nextCalls, fillCalls, mutateCalls int64
}

func newTracer(cfg ptmc.Config) (*tracer, error) {
	parts, err := coreWorkloads(cfg)
	if err != nil {
		return nil, err
	}
	return &tracer{parts: parts}, nil
}

// attach routes every core's stream through a timing wrapper and turns on
// the controller event trace.
func (t *tracer) attach(cfg *ptmc.Config) {
	cfg.Sources = func(core int, seed int64) (workload.Source, error) {
		return &timingSource{inner: t.parts[core].NewStream(seed), core: uint8(core), t: t}, nil
	}
	cfg.Trace = true
	cfg.TraceCapacity = traceCapacity
}

func (t *tracer) reset() {
	*t = tracer{parts: t.parts}
}

// timingSource wraps one core's workload stream exactly as sim.New builds
// it (same workload, seed Seed*1000+core) and times every call into it.
// It forwards FillLineInit, the one optional method the simulator
// type-asserts, so the traced run takes the same code paths.
type timingSource struct {
	inner *workload.Stream
	core  uint8
	t     *tracer
}

func (s *timingSource) Next() workload.Op {
	t0 := nanotime()
	o := s.inner.Next()
	s.t.nextNs += nanotime() - t0
	s.t.nextCalls++
	s.t.ops = append(s.t.ops, op{vaddr: o.VAddr, gap: int32(o.Gap), core: s.core, write: o.Write})
	return o
}

func (s *timingSource) FillLine(vline uint64, buf []byte) {
	s.notePage(vline)
	t0 := nanotime()
	s.inner.FillLine(vline, buf)
	s.t.fillNs += nanotime() - t0
	s.t.fillCalls++
}

func (s *timingSource) FillLineInit(vline uint64, buf []byte) {
	s.notePage(vline)
	t0 := nanotime()
	s.inner.FillLineInit(vline, buf)
	s.t.fillNs += nanotime() - t0
	s.t.fillCalls++
}

func (s *timingSource) MutateLine(vline uint64, buf []byte) {
	t0 := nanotime()
	s.inner.MutateLine(vline, buf)
	s.t.mutateNs += nanotime() - t0
	s.t.mutateCalls++
}

// notePage records a page allocation: first-touch initialization fills a
// page's lines in order, so line 0 of a page marks its allocation.
func (s *timingSource) notePage(vline uint64) {
	if vline%vm.PageLines == 0 {
		s.t.pages = append(s.t.pages, pageInit{core: int(s.core), vpage: vline / vm.PageLines})
	}
}

// spanCost is the clock's share of one span: the mean reading of an empty
// nanotime pair, subtracted from every per-call span.
func spanCost() float64 {
	const n = 1 << 20
	var sum int64
	for i := 0; i < n; i++ {
		a := nanotime()
		sum += nanotime() - a
	}
	return float64(sum) / n
}

// access is one captured access after translation.
type access struct {
	addr  mem.LineAddr
	core  uint8
	write bool
}

// replay turns the traced run's captures into per-layer costs. Every
// replay rebuilds its layer from the public constructors with the run's
// configuration and drives it alone.
func (t *tracer) replay(cfg ptmc.Config, res *ptmc.Result) *layers {
	if res.TraceDropped > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: trace buffer dropped %d events; the DRAM replay is short\n", res.TraceDropped)
	}
	runtime.GC()
	clk := spanCost()
	L := &layers{Values: map[string]metric{}, SelfS: map[string]float64{}}
	kinst := float64(res.Instructions) / 1000

	// workload: in place, from the wrapper's spans.
	wlNs := float64(t.nextNs+t.fillNs+t.mutateNs) - clk*float64(t.nextCalls+t.fillCalls+t.mutateCalls)
	L.SelfS["workload"] = wlNs / 1e9
	L.set("workload.self_s", "s", wlNs/1e9)
	L.set("workload.next_calls", "count", float64(t.nextCalls))
	L.set("workload.fill_calls", "count", float64(t.fillCalls))
	L.set("workload.ns_per_fill", "ns", ratio(float64(t.fillNs)-clk*float64(t.fillCalls), float64(t.fillCalls)))

	// Physical layout: allocate pages in the run's first-touch order, so
	// every line lands at the address the run gave it.
	memBytes, reserved := cfg.MemBytes, cfg.MemBytes/256
	exact, err := vm.New(memBytes, cfg.Cores, cfg.Seed, reserved)
	if err != nil {
		panic(err) // the run itself built this memory
	}
	pageOf := make(map[mem.LineAddr]pageInit, len(t.pages)) // physical page base -> origin
	bases := make([]mem.LineAddr, 0, len(t.pages))
	for _, p := range t.pages {
		a, _, _ := exact.Translate(p.core, p.vpage<<vm.PageShift)
		pageOf[a] = p
		bases = append(bases, a)
	}
	// Translate the access stream and find the run's TLB misses, the only
	// accesses that reach vm.Translate (the 64-entry direct-mapped TLB in
	// front of it is engine glue).
	const tlbSize = 64
	tlb := make([]uint64, cfg.Cores*tlbSize)
	for i := range tlb {
		tlb[i] = ^uint64(0)
	}
	phys := make([]access, len(t.ops))
	var tlbMiss []op
	for i, o := range t.ops {
		a, _, _ := exact.Translate(int(o.core), o.vaddr)
		phys[i] = access{addr: a, core: o.core, write: o.write}
		vp := o.vaddr >> vm.PageShift
		if slot := &tlb[int(o.core)*tlbSize+int(vp%tlbSize)]; *slot != vp {
			*slot = vp
			tlbMiss = append(tlbMiss, o)
		}
	}

	// vm: the TLB-miss stream on a fresh page table.
	{
		v, _ := vm.New(memBytes, cfg.Cores, cfg.Seed, reserved)
		t0 := nanotime()
		for _, o := range tlbMiss {
			v.Translate(int(o.core), o.vaddr)
		}
		ns := float64(nanotime() - t0)
		L.set("vm.translate_ns", "ns", ratio(ns, float64(len(tlbMiss))))
		L.set("vm.page_allocs", "count", float64(v.AllocatedPages()))
		L.SelfS["vm"] = ns / 1e9
	}

	// Page contents, synthesized as first touch does (untimed here: that
	// cost is the workload layer's and was measured in place).
	streams := make([]*workload.Stream, cfg.Cores)
	for i := range streams {
		streams[i] = t.parts[i].NewStream(cfg.Seed*1000 + int64(i))
	}
	var page [vm.PageLines][mem.LineSize]byte
	synth := func(base mem.LineAddr) *[vm.PageLines][mem.LineSize]byte {
		p := pageOf[base]
		for i := range page {
			streams[p.core].FillLineInit(p.vpage*vm.PageLines+uint64(i), page[i][:])
		}
		return &page
	}

	// mem: the two stores a run keeps (architectural values and the DRAM
	// image), written a page at a time as first touch does, then read
	// back along the access stream.
	var writeNs, readNs float64
	{
		arch, img := mem.NewStore(), mem.NewStore()
		var ns int64
		for _, b := range bases {
			page := synth(b)
			t0 := nanotime()
			for i := range page {
				arch.Write(b+mem.LineAddr(i), page[i][:])
				img.Write(b+mem.LineAddr(i), page[i][:])
			}
			ns += nanotime() - t0
		}
		writeNs = ratio(float64(ns), float64(2*len(bases)*vm.PageLines))
		t0 := nanotime()
		for _, a := range phys {
			arch.Read(a.addr)
		}
		readNs = ratio(float64(nanotime()-t0), float64(len(phys)))
		L.set("mem.store_mb", "MB", float64(arch.FootprintBytes()+img.FootprintBytes())/(1<<20))
	}
	L.set("mem.write_ns", "ns", writeNs)
	L.set("mem.read_ns", "ns", readNs)

	// cache: the hierarchy walk against an ideal memory. The first pass
	// records each access's level (for the core replay) and the L2-miss
	// stream (for the controller replay); the second pass is timed.
	levels := make([]uint8, len(phys))
	var l3Stream []access
	{
		h := newHierarchy(cfg)
		for i, a := range phys {
			levels[i] = h.access(a)
			if levels[i] >= 3 {
				l3Stream = append(l3Stream, a)
			}
		}
		h = newHierarchy(cfg)
		t0 := nanotime()
		for _, a := range phys {
			h.access(a)
		}
		ns := float64(nanotime() - t0)
		L.set("cache.access_ns", "ns", ratio(ns, float64(len(phys))))
		L.set("cache.accesses", "count", float64(len(phys)))
		L.SelfS["cache"] = ns / 1e9
	}
	L.set("cache.l3_hit_rate", "frac", res.L3.HitRate())
	L.set("cache.l3_mpki", "1/kinst", res.MPKI)

	// cpu: each core alone, fed its captured stream, against an access
	// function that answers at once with the latency of the level the
	// cache replay found (a miss costs L3 plus the run's mean DRAM read
	// latency). The cost of feeding the stream is measured and removed.
	// The run's length in cycles: the measured window's, plus the warmup's,
	// which ends where the measured window's first traced event starts.
	cycles := res.Cycles
	if len(res.TraceEvents) > 0 {
		cycles += res.TraceEvents[0].TS
	}
	{
		perCore := make([][]workload.Op, cfg.Cores)
		perLevel := make([][]uint8, cfg.Cores)
		for i, o := range t.ops {
			perCore[o.core] = append(perCore[o.core], workload.Op{Gap: int(o.gap), VAddr: o.vaddr, Write: o.write})
			perLevel[o.core] = append(perLevel[o.core], levels[i])
		}
		lat := [5]int64{0, cfg.L1Lat, cfg.L2Lat, cfg.L3Lat, cfg.L3Lat + int64(res.DRAM.AvgReadLatency())}
		var ns, feedNs float64
		var calls int64
		for c := 0; c < cfg.Cores; c++ {
			var insts int64
			for _, o := range perCore[c] {
				insts += int64(o.Gap) + 1
			}
			limit := insts - int64(cfg.Core.ROB) - 1
			if limit < 1 {
				continue
			}
			k, lv := 0, perLevel[c]
			acc := func(_ int, _ uint64, _ bool, now int64, done func(int64)) {
				l := uint8(4)
				if k < len(lv) {
					l = lv[k]
				}
				k++
				done(now + lat[l])
			}
			src := &replaySource{ops: perCore[c]}
			m := cpu.New(c, cfg.Core, src, acc)
			m.SetLimit(limit)
			var n int64
			t0 := nanotime()
			for now := int64(1); !m.Done(); now++ {
				m.Cycle(now)
				n++
			}
			ns += float64(nanotime() - t0)
			feedNs += src.feedCost()
			calls += n
		}
		L.set("cpu.cycle_calls", "count", float64(calls))
		cycleNs := ratio(ns-feedNs, float64(calls))
		L.set("cpu.cycle_ns", "ns", cycleNs)
		// The serial loop calls Cycle on every core every cycle, finished
		// or not; a finished core's Cycle is cheaper, so this bounds the
		// core model's self time from above.
		L.SelfS["cpu"] = cycleNs * float64(cycles) * float64(cfg.Cores) / 1e9
		fmt.Fprintf(os.Stderr, "run cycles %d x %d cores; core replay %d Cycle calls\n", cycles, cfg.Cores, calls)
	}

	// memctrl: the scheme over a real DRAM model and an LLC stub, fed the
	// L2-miss stream paced evenly over the run's cycles.
	mc := replayController(cfg, l3Stream, cycles, bases, synth, clk)
	L.set("memctrl.read_ns", "ns", mc.readNs)
	L.set("memctrl.evict_ns", "ns", mc.evictNs)
	L.set("memctrl.tick_ns", "ns", mc.tickNs)
	st := res.Mem
	extra := st.MispredictReads + st.MetadataReads + st.PrefetchReads +
		st.CleanCompIntoW + st.Invalidates + st.MetadataWrites
	L.set("memctrl.extra_bursts_per_kinst", "1/kinst", float64(extra)/kinst)
	L.set("memctrl.useful_pf_ratio", "frac", ratio(float64(st.UsefulFreePf), float64(st.FreeInstalls)))
	L.set("memctrl.fills_compressed_frac", "frac", ratio(float64(st.FillsCompressed), float64(st.FillsCompressed+st.FillsUncompressed)))

	// dram: the run's controller->DRAM request stream (measured window,
	// from the dram-read/dram-write trace events) on a fresh DRAM model.
	enqNs, tickNs, nreq := replayDRAM(cfg.DRAM, res.TraceEvents, clk)
	L.set("dram.enqueue_ns", "ns", enqNs)
	L.set("dram.tick_ns", "ns", tickNs)
	L.set("dram.requests", "count", float64(nreq))
	L.set("dram.row_hit_rate", "frac", res.DRAM.RowHitRate())
	L.set("dram.avg_read_latency_cyc", "cycles", res.DRAM.AvgReadLatency())

	// compress: the codec on the groups the controller replay evicted and
	// the blobs that fit.
	groupNs, decompNs, allocs := replayCodec(mc.arch, mc.groups)
	L.set("compress.group_ns", "ns", groupNs)
	L.set("compress.decomp_ns", "ns", decompNs)
	L.set("compress.allocs_per_op", "allocs/op", allocs)
	L.set("compress.groups4_frac", "frac", ratio(float64(st.Groups4), float64(st.Groups4+st.Groups2+st.SinglesWrit)))

	// core: marker classification of the lines the controller replay
	// filled, as they sit uncompressed in memory.
	classifyNs := replayClassify(cfg.Seed, mc.arch, mc.fills)
	L.set("core.classify_ns", "ns", classifyNs)
	L.set("core.llp_accuracy", "frac", res.LLPAccuracy)

	// Self times from the controller replay's counts, which cover the
	// whole run, warmup included. Work a scheme does not do counts zero.
	ms := mc.stats
	compressOps := float64(ms.Groups4 + ms.Groups2 + ms.SinglesWrit)
	classifyOps := 0.0
	if mc.markers {
		classifyOps = float64(ms.DemandReads + ms.MispredictReads)
	}
	dramReq := float64(mc.dram.Reads + mc.dram.Writes)
	L.SelfS["dram"] = (enqNs*dramReq + tickNs*float64(mc.ticks)) / 1e9
	L.SelfS["compress"] = (groupNs*compressOps + decompNs*float64(ms.FillsCompressed)) / 1e9
	L.SelfS["core"] = classifyNs * classifyOps / 1e9
	// Store traffic: first touch writes each line to both stores and image
	// initialization reads the architectural copy; stores commit to the
	// architectural store; every DRAM burst moves one line of the image and
	// every fill is checked against the architectural value.
	lines := float64(len(bases) * vm.PageLines)
	ctrlWrites, ctrlReads := float64(mc.dram.Writes), 2*float64(mc.dram.Reads)
	L.SelfS["mem"] = (writeNs*(2*lines+float64(t.mutateCalls)+ctrlWrites) + readNs*(lines+ctrlReads)) / 1e9
	// The controller's own share: its replay's inclusive time minus the
	// layers beneath it.
	L.SelfS["memctrl"] = mc.inclusiveS - L.SelfS["dram"] - L.SelfS["compress"] - L.SelfS["core"] -
		(writeNs*ctrlWrites+readNs*ctrlReads)/1e9
	return L
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// replaySource feeds a core its captured stream; past the end it pads
// with non-memory instructions.
type replaySource struct {
	ops []workload.Op
	i   int
}

func (r *replaySource) Next() workload.Op {
	if r.i < len(r.ops) {
		r.i++
		return r.ops[r.i-1]
	}
	return workload.Op{Gap: 1000}
}

func (r *replaySource) FillLine(uint64, []byte)   {}
func (r *replaySource) MutateLine(uint64, []byte) {}

// feedCost times handing out as many ops as the replay consumed: the part
// of the core replay that is the replay's own plumbing.
func (r *replaySource) feedCost() float64 {
	f := &replaySource{ops: r.ops}
	t0 := nanotime()
	for j := 0; j < r.i; j++ {
		f.Next()
	}
	return float64(nanotime() - t0)
}

// hierarchy is the run's cache geometry driven without a controller:
// private L1/L2 per core, a shared inclusive L3 and an ideal memory.
type hierarchy struct {
	l1, l2 []*cache.Cache
	l3     *cache.Cache
}

func newHierarchy(cfg ptmc.Config) *hierarchy {
	h := &hierarchy{l3: mustCache(cfg.L3Bytes, cfg.L3Assoc)}
	for i := 0; i < cfg.Cores; i++ {
		h.l1 = append(h.l1, mustCache(cfg.L1Bytes, cfg.L1Assoc))
		h.l2 = append(h.l2, mustCache(cfg.L2Bytes, cfg.L2Assoc))
	}
	return h
}

func mustCache(size, assoc int) *cache.Cache {
	c, err := cache.New(cache.Config{SizeBytes: size, Assoc: assoc})
	if err != nil {
		panic(err) // the run itself built this geometry
	}
	return c
}

// access walks the hierarchy as the simulator does and returns the level
// that served it (1-3, or 4 for memory).
func (h *hierarchy) access(a access) uint8 {
	c := int(a.core)
	ent := cache.Entry{Core: a.core}
	if _, hit := h.l1[c].Lookup(a.addr); hit {
		h.markDirty(a)
		return 1
	}
	if _, hit := h.l2[c].Lookup(a.addr); hit {
		h.l1[c].Install(a.addr, ent)
		h.markDirty(a)
		return 2
	}
	level := uint8(3)
	if e, hit := h.l3.Lookup(a.addr); hit {
		e.Dirty = e.Dirty || a.write
	} else {
		level = 4
		victim, _ := h.l3.Install(a.addr, cache.Entry{Core: a.core, Dirty: a.write})
		if victim.Valid {
			for i := range h.l1 {
				h.l1[i].Invalidate(victim.Tag)
				h.l2[i].Invalidate(victim.Tag)
			}
		}
	}
	h.l2[c].Install(a.addr, ent)
	h.l1[c].Install(a.addr, ent)
	return level
}

func (h *hierarchy) markDirty(a access) {
	if a.write {
		if e, ok := h.l3.Probe(a.addr); ok {
			e.Dirty = true
		}
	}
}

// llcStub is the controller's LLC in the controller replay: a real cache of
// the L3's geometry, no private caches. It times the evictions it routes
// into the controller and its own cache work, so both can be taken out of
// the controller call that triggered them.
type llcStub struct {
	l3     *cache.Cache
	ctrl   memctrl.Controller
	nested int64 // ns of Evict and stub cache work inside other controller calls
	evictN int64
	evictS int64
	groups []mem.LineAddr
	fills  []mem.LineAddr
}

func (l *llcStub) Probe(a mem.LineAddr) (*cache.Entry, bool) { return l.l3.Probe(a) }
func (l *llcStub) SetIndex(a mem.LineAddr) int               { return l.l3.SetIndex(a) }
func (l *llcStub) NumSets() int                              { return l.l3.NumSets() }
func (l *llcStub) Drop(a mem.LineAddr) (cache.Entry, bool)   { return l.l3.Invalidate(a) }

func (l *llcStub) InstallFill(coreID int, a mem.LineAddr, e cache.Entry, now int64) {
	t0 := nanotime()
	victim, _ := l.l3.Install(a, e)
	t1 := nanotime()
	l.nested += t1 - t0
	if len(l.fills) < sampleCap {
		l.fills = append(l.fills, a)
	}
	if !victim.Valid {
		return
	}
	if len(l.groups) < sampleCap {
		l.groups = append(l.groups, core.GroupBase(victim.Tag))
	}
	inner := l.nested
	l.ctrl.Evict(int(victim.Core), victim, now)
	d := nanotime() - t1 - (l.nested - inner)
	l.evictS += d
	l.evictN++
	l.nested += d
}

// ctrlReplay is the controller replay's outcome.
type ctrlReplay struct {
	readNs, evictNs, tickNs float64
	inclusiveS              float64 // reads + evictions + ticks, stub work removed
	ticks                   int64
	stats                   memctrl.Stats
	dram                    dram.Stats
	markers                 bool // the scheme classifies fills by marker
	arch                    *mem.Store
	groups, fills           []mem.LineAddr
}

func replayController(cfg ptmc.Config, stream []access, cycles int64,
	bases []mem.LineAddr, synth func(mem.LineAddr) *[vm.PageLines][mem.LineSize]byte, clk float64) *ctrlReplay {
	d, err := dram.New(cfg.DRAM)
	if err != nil {
		panic(err)
	}
	arch, img := mem.NewStore(), mem.NewStore()
	l3 := mustCache(cfg.L3Bytes, cfg.L3Assoc)
	stub := &llcStub{l3: l3}
	var ctrl memctrl.Controller
	var p *memctrl.PTMC
	switch cfg.Scheme {
	case ptmc.SchemeUncompressed:
		ctrl = memctrl.NewUncompressed(d, img, arch, stub)
	case ptmc.SchemePTMC:
		p = memctrl.NewPTMC(d, img, arch, stub, cfg.Seed,
			memctrl.WithLLPEntries(cfg.LLPEntries), memctrl.WithLITMode(cfg.LITMode))
		ctrl = p
	default:
		p = memctrl.NewPTMC(d, img, arch, stub, cfg.Seed,
			memctrl.WithLLPEntries(cfg.LLPEntries), memctrl.WithLITMode(cfg.LITMode),
			memctrl.WithDynamic(cfg.Cores, cfg.SampleFrac, cfg.PerCoreDyn))
		ctrl = p
	}
	stub.ctrl = ctrl
	out := &ctrlReplay{markers: p != nil, arch: arch}

	// First touch: every page the run allocated, in allocation order. Not
	// timed: initializing the image is store work (the mem layer prices
	// it, page allocation included) plus a marker check per line.
	for _, b := range bases {
		page := synth(b)
		for i := range page {
			arch.Write(b+mem.LineAddr(i), page[i][:])
			ctrl.InitLine(b + mem.LineAddr(i))
		}
	}

	bus := int64(cfg.DRAM.BusRatio)
	pace := float64(cycles) / float64(len(stream)+1)
	pending := map[mem.LineAddr]bool{} // outstanding fill -> a store waits on it
	var now, tickNs, readNs, reads, spans int64
	tickTo := func(end int64) {
		inner := stub.nested
		t0 := nanotime()
		for next := (now/bus + 1) * bus; next <= end; next += bus {
			ctrl.Tick(next)
			out.ticks++
		}
		tickNs += nanotime() - t0 - (stub.nested - inner)
		spans++
		now = end
	}
	for i, a := range stream {
		tickTo(int64(float64(i+1) * pace))
		if e, hit := l3.Lookup(a.addr); hit {
			if e.Prefetch {
				e.Prefetch = false
				if p != nil {
					p.OnDemandHit(int(a.core), a.addr)
				}
			}
			e.Dirty = e.Dirty || a.write
			continue
		}
		if w, ok := pending[a.addr]; ok {
			pending[a.addr] = w || a.write
			continue
		}
		pending[a.addr] = a.write
		addr := a.addr
		inner := stub.nested
		t0 := nanotime()
		ctrl.Read(int(a.core), addr, now, func(int64) {
			if pending[addr] {
				if e, ok := l3.Probe(addr); ok {
					e.Dirty = true
				}
			}
			delete(pending, addr)
		})
		readNs += nanotime() - t0 - (stub.nested - inner)
		reads++
	}
	for guard := 0; ctrl.Pending() > 0 && guard < 1<<22; guard++ {
		tickTo(now + bus)
	}

	out.readNs = ratio(float64(readNs)-clk*float64(reads), float64(reads))
	out.evictNs = ratio(float64(stub.evictS)-clk*float64(stub.evictN), float64(stub.evictN))
	out.tickNs = ratio(float64(tickNs)-clk*float64(spans), float64(out.ticks))
	out.inclusiveS = float64(readNs+stub.evictS+tickNs) / 1e9
	out.stats = *ctrl.Stats()
	out.dram = d.Stats
	out.groups, out.fills = stub.groups, stub.fills
	return out
}

func noopComplete(int64) {}

// replayDRAM replays the captured request stream: each request enters the
// queue at its recorded issue cycle (retrying while the queue is full, as
// the controller does) and the model ticks on every bus cycle between.
func replayDRAM(cfg dram.Config, events []obs.Event, clk float64) (enqNs, tickNs float64, n int) {
	d, err := dram.New(cfg)
	if err != nil {
		panic(err)
	}
	bus := int64(cfg.BusRatio)
	var retry []*dram.Request
	var enq, enqCalls, ticks, now int64
	enqueue := func(r *dram.Request) bool {
		s := nanotime()
		ok := d.Enqueue(r, now)
		enq += nanotime() - s
		enqCalls++
		return ok
	}
	advance := func(end int64) {
		for next := (now/bus + 1) * bus; next <= end; next += bus {
			now = next
			for len(retry) > 0 && enqueue(retry[0]) {
				retry = retry[1:]
			}
			d.Tick(now)
			ticks++
		}
		if end > now {
			now = end
		}
	}
	t0 := nanotime()
	for _, e := range events {
		if e.Kind != obs.KindDRAMRead && e.Kind != obs.KindDRAMWrite {
			continue
		}
		advance(e.TS)
		r := d.AcquireRequest()
		r.Addr, r.Write = mem.LineAddr(e.Addr), e.Kind == obs.KindDRAMWrite
		if !r.Write {
			r.OnComplete = noopComplete
		}
		n++
		if len(retry) > 0 || !enqueue(r) {
			retry = append(retry, r)
		}
	}
	for guard := 0; (len(retry) > 0 || d.QueueDepth() > 0) && guard < 1<<22; guard++ {
		advance(now + bus)
	}
	total := float64(nanotime() - t0)
	enqNs = ratio(float64(enq)-clk*float64(enqCalls), float64(enqCalls))
	tickNs = ratio(total-float64(enq)-clk*float64(enqCalls), float64(ticks))
	return enqNs, tickNs, n
}

// replayCodec compresses each evicted group (its four lines within the
// 60-byte budget as 4:1, else its first pair as 2:1) and decompresses
// every blob that fit. It returns ns per compression, ns per
// decompression and heap allocations per operation.
func replayCodec(arch *mem.Store, groups []mem.LineAddr) (groupNs, decompNs, allocs float64) {
	if len(groups) == 0 {
		groups = []mem.LineAddr{0} // an empty eviction stream still prices the codec
	}
	alg := compress.Hybrid{}
	lines := make([][]byte, len(groups)*4)
	for i, g := range groups {
		for j := 0; j < 4; j++ {
			lines[4*i+j] = append([]byte(nil), arch.Read(g+mem.LineAddr(j))...)
		}
	}
	// Blobs land in one preallocated buffer so the timed loops allocate
	// only what the codec itself does.
	type blob struct{ off, end, n int }
	blobs := make([]blob, 0, len(groups))
	out := make([]byte, 0, len(groups)*core.CompressedBudget+4*mem.LineSize)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := nanotime()
	for i := range groups {
		g := lines[4*i : 4*i+4]
		off := len(out)
		if b, ok := compress.AppendCompressGroup(alg, out, g, core.CompressedBudget); ok {
			out = b
			blobs = append(blobs, blob{off, len(out), 4})
		} else if b, ok := compress.AppendCompressGroup(alg, out, g[:2], core.CompressedBudget); ok {
			out = b
			blobs = append(blobs, blob{off, len(out), 2})
		}
	}
	t1 := nanotime()
	var dst [4][mem.LineSize]byte
	refs := [][]byte{dst[0][:], dst[1][:], dst[2][:], dst[3][:]}
	for _, b := range blobs {
		if err := compress.DecompressGroupInto(alg, refs, out[b.off:b.end], b.n); err != nil {
			panic(err) // the codec could not read back its own output
		}
	}
	t2 := nanotime()
	runtime.ReadMemStats(&ms1)
	allocs = ratio(float64(ms1.Mallocs-ms0.Mallocs), float64(len(groups)+len(blobs)))
	return ratio(float64(t1-t0), float64(len(groups))), ratio(float64(t2-t1), float64(len(blobs))), allocs
}

// replayClassify runs marker classification over the filled lines.
func replayClassify(seed int64, arch *mem.Store, fills []mem.LineAddr) float64 {
	if len(fills) == 0 {
		fills = []mem.LineAddr{0}
	}
	g := core.NewMarkerGen(seed)
	data := make([][]byte, len(fills))
	for i, a := range fills {
		data[i] = append([]byte(nil), arch.Read(a)...)
	}
	var sink core.Class
	t0 := nanotime()
	for i, a := range fills {
		sink ^= g.Classify(a, data[i])
	}
	ns := float64(nanotime() - t0)
	_ = sink
	return ratio(ns, float64(len(fills)))
}
