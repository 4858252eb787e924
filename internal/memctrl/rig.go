package memctrl

import (
	"fmt"

	"ptmc/internal/cache"
	"ptmc/internal/dram"
	"ptmc/internal/fault"
	"ptmc/internal/mem"
)

// buildFunc constructs the controller a rig drives from its environment.
type buildFunc func(d *dram.DRAM, img, arch *mem.Store, llc LLC) Controller

// rigLLC adapts a real cache.Cache to the LLC interface and routes victims
// back into the controller — the simulator's wiring, minus the private
// levels.
type rigLLC struct {
	c    *cache.Cache
	ctrl Controller
}

func (l *rigLLC) Probe(a mem.LineAddr) (*cache.Entry, bool) { return l.c.Probe(a) }
func (l *rigLLC) SetIndex(a mem.LineAddr) int               { return l.c.SetIndex(a) }
func (l *rigLLC) NumSets() int                              { return l.c.NumSets() }
func (l *rigLLC) Drop(a mem.LineAddr) (cache.Entry, bool)   { return l.c.Invalidate(a) }

func (l *rigLLC) InstallFill(core int, a mem.LineAddr, e cache.Entry, now int64) {
	victim, _ := l.c.Install(a, e)
	if victim.Valid {
		l.ctrl.Evict(int(victim.Core), victim, now)
	}
}

// rig drives one controller directly, with no cores and no cycle loop:
// DRAM, the image and architectural stores, an LLC, and reads and
// write-allocates through it. Drains are bounded, so a wedged controller
// surfaces as an error instead of a hang. The fault campaign and the
// package's tests, benchmarks and fuzz target all drive controllers
// through it.
type rig struct {
	d         *dram.DRAM
	img, arch *mem.Store
	llc       *rigLLC
	ctrl      Controller
	now       int64
}

// buildRig assembles DDR4 DRAM, empty stores and an LLC of geometry llc
// around the controller build returns.
func buildRig(llc cache.Config, build buildFunc) (*rig, error) {
	d, err := dram.New(dram.DDR4())
	if err != nil {
		return nil, err
	}
	c, err := cache.New(llc)
	if err != nil {
		return nil, err
	}
	r := &rig{d: d, img: mem.NewStore(), arch: mem.NewStore(), llc: &rigLLC{c: c}}
	r.ctrl = build(d, r.img, r.arch, r.llc)
	r.llc.ctrl = r.ctrl
	return r, nil
}

// drain ticks until the controller has no outstanding work.
func (r *rig) drain() error {
	for i := 0; r.ctrl.Pending() > 0; i++ {
		r.now += 4
		r.ctrl.Tick(r.now)
		if i > 1_000_000 {
			return fmt.Errorf("memctrl: controller did not drain (%d pending)", r.ctrl.Pending())
		}
	}
	return nil
}

// resident reports whether line a is in the LLC (VerifyImage's notion of
// an authoritative cached copy).
func (r *rig) resident(a mem.LineAddr) bool {
	_, ok := r.llc.c.Probe(a)
	return ok
}

// read models a demand load: first touch gives the line architectural
// zeros and initializes its image, and a miss goes through the controller
// (whose fill checks the decoded value against the architectural one).
func (r *rig) read(core int, a mem.LineAddr) error {
	if !r.arch.Touched(a) {
		r.arch.Write(a, make([]byte, mem.LineSize))
		r.ctrl.InitLine(a)
	}
	if r.resident(a) {
		return nil
	}
	done := false
	r.ctrl.Read(core, a, r.now, func(int64) { done = true })
	if err := r.drain(); err != nil {
		return err
	}
	if !done {
		return fmt.Errorf("memctrl: read of line %d never completed", a)
	}
	return nil
}

// write models a CPU store: write-allocate, then set the architectural
// value and dirty the resident line.
func (r *rig) write(core int, a mem.LineAddr, val []byte) error {
	if !r.resident(a) {
		if err := r.read(core, a); err != nil {
			return err
		}
	}
	r.arch.Write(a, val)
	e, ok := r.llc.Probe(a)
	if !ok {
		return fmt.Errorf("memctrl: line %d absent after write-allocate fill", a)
	}
	e.Dirty = true
	return nil
}

// evict forces line a, if resident, out of the LLC through the controller.
func (r *rig) evict(a mem.LineAddr) error {
	if e, ok := r.llc.Drop(a); ok {
		r.ctrl.Evict(int(e.Core), e, r.now)
		return r.drain()
	}
	return nil
}

// flushAll evicts every resident line through the controller, making
// memory authoritative for the whole footprint.
func (r *rig) flushAll() error {
	for {
		var victim cache.Entry
		found := false
		r.llc.c.ForEachValid(func(e *cache.Entry) {
			if !found {
				victim, found = *e, true
			}
		})
		if !found {
			return nil
		}
		r.llc.Drop(victim.Tag)
		r.ctrl.Evict(int(victim.Core), victim, r.now)
		if err := r.drain(); err != nil {
			return err
		}
	}
}

// sweep reads every architecturally live line that is not resident
// through the controller, 64 reads in flight at a time — an oracle
// independent of VerifyImage: any line the read path cannot serve
// correctly trips IntegrityErrs or a degradation counter.
func (r *rig) sweep() error {
	batched := 0
	for _, a := range r.arch.TouchedLines() {
		if r.resident(a) {
			continue
		}
		r.ctrl.Read(0, a, r.now, func(int64) {})
		if batched++; batched >= 64 {
			if err := r.drain(); err != nil {
				return err
			}
			batched = 0
		}
	}
	return r.drain()
}

// injector returns a seeded fault injector aimed at the rig's image and
// its PTMC controller's markers, LIT and LLP.
func (r *rig) injector(seed int64) *fault.Injector {
	p := r.ctrl.(*PTMC)
	return fault.NewInjector(seed, fault.Target{
		Img: r.img, Markers: p.Markers(), LIT: p.LIT(), LLP: p.LLP(),
	})
}
