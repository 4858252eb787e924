// Package sim assembles the full system of Table I — 8 OoO cores, a
// three-level cache hierarchy, virtual memory, and a DDR4 memory system
// behind one of the memory-controller schemes — and runs workloads to
// produce the statistics every table and figure in the paper is built from.
package sim

import (
	"context"
	"fmt"

	"ptmc/internal/cache"
	"ptmc/internal/cpu"
	"ptmc/internal/dram"
	"ptmc/internal/energy"
	"ptmc/internal/mem"
	"ptmc/internal/memctrl"
	"ptmc/internal/obs"
	"ptmc/internal/vm"
	"ptmc/internal/workload"
)

// prefetchObserver is implemented by schemes that track useful free
// prefetches (PTMC's Dynamic benefit events).
type prefetchObserver interface {
	OnDemandHit(core int, a mem.LineAddr)
}

// waiter is one access merged into an outstanding fill (MSHR semantics).
// Store misses carry their mutation with them: the architectural write
// commits when the write-allocate fill arrives, not at issue time.
type waiter struct {
	write  bool
	coreID int
	vaddr  uint64
	done   func(int64)
}

// Simulator is one assembled system.
type Simulator struct {
	cfg     Config
	streams []workload.Source
	cores   []*cpu.Core
	l1, l2  []*cache.Cache
	l3      *cache.Cache
	vmsys   *vm.System
	arch    *mem.Store
	img     *mem.Store
	ctrl    memctrl.Controller
	obs     prefetchObserver
	mshr    map[mem.LineAddr][]waiter

	// reference selects the test-only reference path (newSimulator): the
	// per-cycle runReference loop, eager page initialization through
	// InitLine, and the DRAM model's scan-every-channel mode.
	reference bool
	// origins records each lazily initialized page's stream and virtual
	// base for archLine; nil when pages are written eagerly.
	origins map[mem.LineAddr]pageOrigin

	now         int64
	windowStart int64
	fatal       error

	// Per-run observability. Each simulator owns its own registry and
	// tracer — per-run isolation is what keeps CompareParallel output
	// byte-identical at any -parallel level. Both are nil when disabled.
	reg    *obs.Registry
	tracer *obs.Tracer

	tlb     []tlbEntry // per-core direct-mapped TLB (fast path only)
	scratch [64]byte   // reusable line buffer for store mutation

	// initPage's buffers: one synthesized line and one page's screen
	// words. Fields rather than locals because the sources they are
	// handed to are interfaces, which would move locals to the heap.
	initLine  [mem.LineSize]byte
	initWords [vm.PageLines]workload.LineWords

	// Measured-window counters.
	demandAccesses uint64
	pageInits      uint64
}

// tlbEntry caches one vpage translation per core (performance only; the
// page tables in internal/vm remain authoritative).
type tlbEntry struct {
	vpage uint64
	paddr mem.LineAddr // physical line address of the page base
	valid bool
}

const tlbSize = 64 // entries per core, direct-mapped

// llcAdapter exposes the shared L3 to the controller, enforcing inclusion
// by back-invalidating private caches on every L3 removal.
type llcAdapter struct{ s *Simulator }

func (l llcAdapter) Probe(a mem.LineAddr) (*cache.Entry, bool) { return l.s.l3.Probe(a) }
func (l llcAdapter) SetIndex(a mem.LineAddr) int               { return l.s.l3.SetIndex(a) }
func (l llcAdapter) NumSets() int                              { return l.s.l3.NumSets() }

func (l llcAdapter) InstallFill(core int, a mem.LineAddr, e cache.Entry, now int64) {
	victim, _ := l.s.l3.Install(a, e)
	if victim.Valid {
		l.s.backInvalidate(victim.Tag)
		l.s.ctrl.Evict(int(victim.Core), victim, now)
	}
}

func (l llcAdapter) Drop(a mem.LineAddr) (cache.Entry, bool) {
	e, ok := l.s.l3.Invalidate(a)
	if ok {
		l.s.backInvalidate(a)
	}
	return e, ok
}

// New assembles a simulator.
func New(cfg Config) (*Simulator, error) { return newSimulator(cfg, false) }

// newSimulator assembles a simulator; reference selects the test-only
// reference path the determinism tests compare the production path with.
func newSimulator(cfg Config, reference bool) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Simulator{cfg: cfg, reference: reference, mshr: make(map[mem.LineAddr][]waiter)}

	// Workload streams: rate mode (one workload, all cores), a mix, or
	// caller-provided sources (trace replay).
	parts := make([]*workload.Workload, cfg.Cores)
	if cfg.Sources != nil {
		for i := 0; i < cfg.Cores; i++ {
			src, err := cfg.Sources(i, cfg.Seed*1000+int64(i))
			if err != nil {
				return nil, err
			}
			s.streams = append(s.streams, src)
		}
	} else if cfg.Custom != nil {
		if err := cfg.Custom.Validate(); err != nil {
			return nil, err
		}
		for i := range parts {
			parts[i] = cfg.Custom
		}
	} else if mix, err := workload.LookupMix(cfg.Workload); err == nil {
		if len(mix.Parts) != cfg.Cores {
			return nil, fmt.Errorf("sim: mix %s has %d parts, config has %d cores",
				mix.Name, len(mix.Parts), cfg.Cores)
		}
		for i, name := range mix.Parts {
			w, err := workload.Lookup(name)
			if err != nil {
				return nil, err
			}
			parts[i] = w
		}
	} else {
		w, err := workload.Lookup(cfg.Workload)
		if err != nil {
			return nil, fmt.Errorf("sim: %q is neither a workload nor a mix", cfg.Workload)
		}
		for i := range parts {
			parts[i] = w
		}
	}
	if cfg.Sources == nil {
		for i, w := range parts {
			s.streams = append(s.streams, w.NewStream(cfg.Seed*1000+int64(i)))
		}
	}

	// Memory system. The metadata-table reservation (2 bits per line) is
	// carved out under every scheme so physical page placement — and
	// therefore DRAM behavior — is identical across scheme comparisons.
	reserved := cfg.MemBytes / 256
	vmsys, err := vm.New(cfg.MemBytes, cfg.Cores, cfg.Seed, reserved)
	if err != nil {
		return nil, err
	}
	s.vmsys = vmsys
	s.arch = mem.NewStore()
	s.img = mem.NewStore()

	d, err := dram.New(cfg.DRAM)
	if err != nil {
		return nil, err
	}

	// Caches.
	mk := func(size, assoc int) (*cache.Cache, error) {
		return cache.New(cache.Config{SizeBytes: size, Assoc: assoc})
	}
	s.l3, err = mk(cfg.L3Bytes, cfg.L3Assoc)
	if err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Cores; i++ {
		c1, err := mk(cfg.L1Bytes, cfg.L1Assoc)
		if err != nil {
			return nil, err
		}
		c2, err := mk(cfg.L2Bytes, cfg.L2Assoc)
		if err != nil {
			return nil, err
		}
		s.l1 = append(s.l1, c1)
		s.l2 = append(s.l2, c2)
	}

	// Controller.
	adapter := llcAdapter{s}
	switch cfg.Scheme {
	case SchemeUncompressed:
		s.ctrl = memctrl.NewUncompressed(d, s.img, s.arch, adapter)
	case SchemeNextLine:
		s.ctrl = memctrl.NewNextLinePrefetch(d, s.img, s.arch, adapter)
	case SchemeIdeal:
		s.ctrl = memctrl.NewIdealTMC(d, s.img, s.arch, adapter)
	case SchemeTableTMC:
		c, err := memctrl.NewTableTMC(d, s.img, s.arch, adapter,
			vmsys.ReservedBase(), cfg.MCacheBytes)
		if err != nil {
			return nil, err
		}
		s.ctrl = c
	case SchemeMemZip:
		c, err := memctrl.NewMemZip(d, s.img, s.arch, adapter,
			vmsys.ReservedBase(), cfg.MCacheBytes)
		if err != nil {
			return nil, err
		}
		s.ctrl = c
	case SchemePTMC:
		s.ctrl = memctrl.NewPTMC(d, s.img, s.arch, adapter, cfg.Seed,
			memctrl.WithLLPEntries(cfg.LLPEntries),
			memctrl.WithLITMode(cfg.LITMode))
	case SchemeDynamicPTMC:
		s.ctrl = memctrl.NewPTMC(d, s.img, s.arch, adapter, cfg.Seed,
			memctrl.WithLLPEntries(cfg.LLPEntries),
			memctrl.WithLITMode(cfg.LITMode),
			memctrl.WithDynamic(cfg.Cores, cfg.SampleFrac, cfg.PerCoreDyn))
	}
	if cfg.DecompCycles > 0 {
		if dc, ok := s.ctrl.(interface{ SetDecompressCycles(int64) }); ok {
			dc.SetDecompressCycles(cfg.DecompCycles)
		}
	}
	s.obs, _ = s.ctrl.(prefetchObserver)

	// The run loop needs the DRAM model's O(1) wake schedule. Both stores
	// synthesize a page's lines on demand when every stream can synthesize
	// a first-touch line without its version map (trace replay cannot).
	if !reference {
		s.ctrl.DRAM().SetEngineMode(true)
		lazy := true
		for _, src := range s.streams {
			if _, ok := src.(fillIniter); !ok {
				lazy = false
				break
			}
		}
		if lazy {
			s.origins = make(map[mem.LineAddr]pageOrigin)
			s.arch.SetLazyFill(s.archLine)
			s.img.SetLazyFill(s.archLine)
		}
	}

	// Observability wiring. The tracer attaches to the controller (every
	// scheme embeds memctrl's base, which implements SetTracer) and, for
	// Dynamic-PTMC, to the policy's flip hook; the registry wraps the live
	// stats structs behind named series.
	if cfg.Trace {
		s.tracer = obs.NewTracer(cfg.TraceCapacity)
		if st, ok := s.ctrl.(interface{ SetTracer(*obs.Tracer) }); ok {
			st.SetTracer(s.tracer)
		}
		if p, ok := s.ctrl.(*memctrl.PTMC); ok && p.Dynamic() != nil {
			tr := s.tracer
			p.Dynamic().SetFlipHook(func(core int, enabled bool) {
				arg := int64(0)
				if enabled {
					arg = 1
				}
				tr.Emit(obs.KindPolicyFlip, s.now, 0, core, 0, arg)
			})
		}
	}
	if cfg.MetricsInterval > 0 {
		s.reg = obs.NewRegistry()
		s.registerMetrics()
	}

	// Cores.
	for i := 0; i < cfg.Cores; i++ {
		s.cores = append(s.cores, cpu.New(i, cfg.Core, s.streams[i], s.access))
	}
	s.tlb = make([]tlbEntry, cfg.Cores*tlbSize)
	return s, nil
}

// registerMetrics wraps the run's live stats structs behind named, labeled
// series. The closures read fields off stable pointers (resetStats zeroes
// the structs in place), so a snapshot is a loop of field loads.
func (s *Simulator) registerMetrics() {
	lbl := map[string]string{"scheme": s.cfg.Scheme, "workload": s.cfg.Workload}
	st := s.ctrl.Stats()
	counter := func(name string, read func() uint64) { s.reg.Counter(name, lbl, read) }
	gauge := func(name string, read func() uint64) { s.reg.Gauge(name, lbl, read) }

	// Memory-controller bandwidth events (Figures 4/14 stacks, Figure 16
	// cost/benefit inputs).
	counter("mem.demand_reads", func() uint64 { return st.DemandReads })
	counter("mem.mispredict_reads", func() uint64 { return st.MispredictReads })
	counter("mem.metadata_reads", func() uint64 { return st.MetadataReads })
	counter("mem.prefetch_reads", func() uint64 { return st.PrefetchReads })
	counter("mem.dirty_writes", func() uint64 { return st.DirtyWrites })
	counter("mem.clean_comp_writes", func() uint64 { return st.CleanCompIntoW })
	counter("mem.invalidates", func() uint64 { return st.Invalidates })
	counter("mem.metadata_writes", func() uint64 { return st.MetadataWrites })
	counter("mem.groups4", func() uint64 { return st.Groups4 })
	counter("mem.groups2", func() uint64 { return st.Groups2 })
	counter("mem.singles", func() uint64 { return st.SinglesWrit })
	counter("mem.free_installs", func() uint64 { return st.FreeInstalls })
	counter("mem.useful_free_pf", func() uint64 { return st.UsefulFreePf })
	counter("mem.coalesced_reads", func() uint64 { return st.CoalescedReads })
	counter("mem.fills_compressed", func() uint64 { return st.FillsCompressed })
	counter("mem.fills_uncompressed", func() uint64 { return st.FillsUncompressed })
	counter("mem.degradations", func() uint64 { return st.Degradations() })

	d := s.ctrl.DRAM()
	counter("dram.reads", func() uint64 { return d.Stats.Reads })
	counter("dram.writes", func() uint64 { return d.Stats.Writes })
	counter("dram.row_hits", func() uint64 { return d.Stats.RowHits })
	counter("dram.activates", func() uint64 { return d.Stats.Activates })
	gauge("dram.queue_depth", func() uint64 { return uint64(d.QueueDepth()) })

	l3 := s.l3
	counter("l3.hits", func() uint64 { return l3.Stats.Hits })
	counter("l3.misses", func() uint64 { return l3.Stats.Misses })
	counter("l3.evictions", func() uint64 { return l3.Stats.Evictions })

	if p, ok := s.ctrl.(*memctrl.PTMC); ok {
		llp := p.LLP()
		counter("llp.predictions", func() uint64 { return llp.Predictions })
		counter("llp.correct", func() uint64 { return llp.Correct })
		if dyn := p.Dynamic(); dyn != nil {
			for i, uc := range dyn.Counters() {
				uc := uc
				clbl := map[string]string{
					"scheme":   s.cfg.Scheme,
					"workload": s.cfg.Workload,
					"core":     fmt.Sprintf("%d", i),
				}
				s.reg.Counter("dyn.benefits", clbl, func() uint64 { return uc.Benefits })
				s.reg.Counter("dyn.costs", clbl, func() uint64 { return uc.Costs })
				s.reg.Gauge("dyn.counter", clbl, func() uint64 { return uint64(uc.Value()) })
				enabled := func() uint64 {
					if uc.Enabled() {
						return 1
					}
					return 0
				}
				s.reg.Gauge("dyn.enabled", clbl, enabled)
			}
		}
	}
	if t, ok := s.ctrl.(*memctrl.TableTMC); ok {
		m := t.Meta()
		counter("mcache.lookups", func() uint64 { return m.Lookups })
		counter("mcache.hits", func() uint64 { return m.Hits })
	}
}

// backInvalidate enforces inclusion: remove a from every private cache.
func (s *Simulator) backInvalidate(a mem.LineAddr) {
	for i := range s.l1 {
		s.l1[i].Invalidate(a)
		s.l2[i].Invalidate(a)
	}
}

// translate maps and, on first touch of a page, synthesizes its contents
// into the architectural store and the scheme's memory image.
func (s *Simulator) translate(coreID int, vaddr uint64) (mem.LineAddr, bool) {
	vpage := vaddr >> vm.PageShift
	lineInPage := (vaddr >> 6) & (vm.PageLines - 1)
	te := &s.tlb[coreID*tlbSize+int(vpage%tlbSize)]
	if te.valid && te.vpage == vpage {
		return te.paddr + mem.LineAddr(lineInPage), true
	}
	paddr, allocated, err := s.vmsys.Translate(coreID, vaddr)
	if err != nil {
		s.fatal = err
		return 0, false
	}
	te.vpage, te.paddr, te.valid = vpage, paddr-mem.LineAddr(lineInPage), true
	if allocated {
		s.pageInits++
		pageBase := paddr &^ (vm.PageLines - 1)
		vlineBase := (vaddr >> 6) &^ (vm.PageLines - 1)
		if !s.reference {
			s.initPage(coreID, pageBase, vlineBase)
		} else {
			buf := make([]byte, mem.LineSize)
			for i := uint64(0); i < vm.PageLines; i++ {
				s.streams[coreID].FillLine(vlineBase+i, buf)
				s.arch.Write(pageBase+mem.LineAddr(i), buf)
				s.ctrl.InitLine(pageBase + mem.LineAddr(i))
			}
		}
	}
	return paddr, true
}

// access is the hierarchy walk each memory instruction performs.
func (s *Simulator) access(coreID int, vaddr uint64, write bool, now int64, done func(int64)) {
	paddr, ok := s.translate(coreID, vaddr)
	if !ok {
		done(now + 1)
		return
	}
	s.demandAccesses++
	resident := false
	if _, hit := s.l3.Probe(paddr); hit {
		resident = true
	}
	if write && resident {
		// Store to a resident line commits immediately.
		s.streams[coreID].MutateLine(vaddr>>6, s.scratch[:])
		s.arch.Write(paddr, s.scratch[:])
	}

	if _, hit := s.l1[coreID].Lookup(paddr); hit {
		if write {
			s.markDirty(paddr)
		}
		done(now + s.cfg.L1Lat)
		return
	}
	if _, hit := s.l2[coreID].Lookup(paddr); hit {
		s.l1[coreID].Install(paddr, cache.Entry{Core: uint8(coreID)})
		if write {
			s.markDirty(paddr)
		}
		done(now + s.cfg.L2Lat)
		return
	}
	if e, hit := s.l3.Lookup(paddr); hit {
		if e.Prefetch {
			e.Prefetch = false
			if s.obs != nil {
				s.obs.OnDemandHit(coreID, paddr)
			}
		}
		if write {
			e.Dirty = true
		}
		s.fillPrivate(coreID, paddr)
		done(now + s.cfg.L3Lat)
		return
	}

	// L3 miss: merge into an outstanding fill or start one. Merged
	// (secondary) misses are not architectural L3 misses — MPKI counts
	// primary misses only.
	w := waiter{write: write, coreID: coreID, vaddr: vaddr, done: done}
	if _, outstanding := s.mshr[paddr]; outstanding {
		s.l3.Stats.Misses--
		s.mshr[paddr] = append(s.mshr[paddr], w)
		return
	}
	s.mshr[paddr] = []waiter{w}
	s.ctrl.Read(coreID, paddr, now, func(c int64) {
		s.fillDone(coreID, paddr, c)
	})
}

// markDirty sets the L3 dirty bit (the single source of dirtiness truth).
func (s *Simulator) markDirty(paddr mem.LineAddr) {
	if e, ok := s.l3.Probe(paddr); ok {
		e.Dirty = true
		e.Prefetch = false
	}
}

// fillPrivate mirrors a line into the requesting core's L1/L2.
func (s *Simulator) fillPrivate(coreID int, paddr mem.LineAddr) {
	s.l2[coreID].Install(paddr, cache.Entry{Core: uint8(coreID)})
	s.l1[coreID].Install(paddr, cache.Entry{Core: uint8(coreID)})
}

// fillDone completes an outstanding miss: the controller has installed the
// line into L3; wake every merged waiter.
func (s *Simulator) fillDone(coreID int, paddr mem.LineAddr, c int64) {
	waiters := s.mshr[paddr]
	delete(s.mshr, paddr)
	if e, ok := s.l3.Probe(paddr); ok {
		e.Prefetch = false
		for _, w := range waiters {
			if w.write {
				// The write-allocate fill has arrived: commit the store.
				s.streams[w.coreID].MutateLine(w.vaddr>>6, s.scratch[:])
				s.arch.Write(paddr, s.scratch[:])
				e.Dirty = true
			}
		}
	}
	s.fillPrivate(coreID, paddr)
	end := c + s.cfg.L3Lat
	for _, w := range waiters {
		w.done(end)
	}
}

// runReference is the test-only reference loop run is checked against: it
// executes every cycle — each core, then the controller on bus multiples,
// then metrics snapshots — with the same termination checks as run.
func (s *Simulator) runReference(ctx context.Context, limit, maxCycles int64) error {
	for i := range s.cores {
		s.cores[i].ResetWindow(limit)
	}
	s.windowStart = s.now
	deadline := s.now + maxCycles
	for iter := 0; ; iter++ {
		if done, err := s.stopped(ctx, iter, deadline, maxCycles); done || err != nil {
			return err
		}
		s.now++
		for _, c := range s.cores {
			c.Cycle(s.now)
		}
		if s.now%int64(s.cfg.DRAM.BusRatio) == 0 {
			s.ctrl.Tick(s.now)
		}
		if s.reg != nil && s.now%s.cfg.MetricsInterval == 0 {
			s.reg.Snapshot(s.now)
		}
	}
}

// resetStats zeroes every measured counter (end of warmup).
func (s *Simulator) resetStats() {
	for i := range s.l1 {
		s.l1[i].Stats = cache.Stats{}
		s.l2[i].Stats = cache.Stats{}
	}
	s.l3.Stats = cache.Stats{}
	*s.ctrl.Stats() = memctrl.Stats{}
	s.ctrl.DRAM().Stats = dram.Stats{}
	s.demandAccesses = 0
	s.pageInits = 0
	s.reg.Reset()    // nil-safe: drops warmup snapshots, keeps series
	s.tracer.Reset() // nil-safe: drops warmup events
	if p, ok := s.ctrl.(*memctrl.PTMC); ok {
		p.LLP().Predictions = 0
		p.LLP().Correct = 0
	}
	if t, ok := s.ctrl.(*memctrl.TableTMC); ok {
		t.Meta().Lookups = 0
		t.Meta().Hits = 0
		t.Meta().Misses = 0
		t.Meta().Writes = 0
	}
}

// Run executes warmup then the measured window and returns the results.
func (s *Simulator) Run() (*Result, error) {
	return s.RunContext(context.Background())
}

// RunContext is Run with cancellation: the simulation aborts (returning
// ctx's error) at the next 4096-iteration checkpoint after ctx is done.
// The poll is what lets a per-run timeout (cmd/sweep -timeout, a job's
// timeout_sec, both through exec.Cache.DoJob) interrupt a pathological
// simulation instead of hanging a worker forever.
func (s *Simulator) RunContext(ctx context.Context) (*Result, error) {
	const cyclesPerInstr = 400 // generous safety budget
	runFn := s.run
	if s.reference {
		runFn = s.runReference
	}
	if s.cfg.WarmupInstr > 0 {
		if err := runFn(ctx, s.cfg.WarmupInstr, s.cfg.WarmupInstr*cyclesPerInstr+10_000_000); err != nil {
			return nil, fmt.Errorf("warmup: %w", err)
		}
	}
	s.resetStats()
	if err := runFn(ctx, s.cfg.MeasureInstr, s.cfg.MeasureInstr*cyclesPerInstr+10_000_000); err != nil {
		return nil, err
	}
	return s.collect(), nil
}

// Controller exposes the scheme under test (figure-specific probes).
func (s *Simulator) Controller() memctrl.Controller { return s.ctrl }

// collect builds the Result from the measured window.
func (s *Simulator) collect() *Result {
	r := &Result{
		Workload: s.cfg.Workload,
		Scheme:   s.cfg.Scheme,
		Cores:    s.cfg.Cores,
	}
	var maxFinish int64
	var totalInstr int64
	for _, c := range s.cores {
		fin := c.FinishedAt() - s.windowStart
		if fin <= 0 {
			fin = 1
		}
		if fin > maxFinish {
			maxFinish = fin
		}
		r.PerCoreIPC = append(r.PerCoreIPC, float64(s.cfg.MeasureInstr)/float64(fin))
		totalInstr += s.cfg.MeasureInstr
	}
	r.Instructions = totalInstr
	r.Cycles = maxFinish
	r.L3 = s.l3.Stats
	r.Mem = *s.ctrl.Stats()
	r.DRAM = s.ctrl.DRAM().Stats
	r.MPKI = float64(s.l3.Stats.Misses) / (float64(totalInstr) / 1000)
	r.FootprintBytes = s.vmsys.FootprintBytes()
	r.Energy = energy.Compute(energy.DefaultParams(), r.DRAM,
		s.cfg.DRAM.Channels, r.Cycles, s.cfg.CPUFreqGHz)

	if p, ok := s.ctrl.(*memctrl.PTMC); ok {
		r.LLPAccuracy = p.LLP().Accuracy()
		r.HasLLP = true
	}
	if t, ok := s.ctrl.(*memctrl.TableTMC); ok {
		r.MCacheHitRate = t.Meta().HitRate()
		r.HasMCache = true
	}
	if s.reg != nil {
		// Close the series with an end-of-window snapshot so the final
		// partial window's deltas are exported too.
		s.reg.Snapshot(s.now)
		r.Metrics = s.reg.Export()
	}
	if s.tracer != nil {
		r.TraceEvents = s.tracer.Events()
		r.TraceDropped = s.tracer.Dropped()
	}
	return r
}
