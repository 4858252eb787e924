package memctrl

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"ptmc/internal/core"
	"ptmc/internal/dram"
	"ptmc/internal/fault"
	"ptmc/internal/mem"
)

// fuzzPages is FuzzControllerOps' memory: four pages, so groups, pages and
// a next-line prefetch past the last touched page all occur.
const (
	fuzzPages    = 4
	fuzzSeed     = 42
	fuzzMetaBase = mem.LineAddr(1 << 20)
)

// fuzzSchemes builds each of the seven schemes on a rig with a 64-line LLC,
// small enough that fills evict dirty lines through the controller.
var fuzzSchemes = []struct {
	name  string
	build buildFunc
}{
	{"uncompressed", func(d *dram.DRAM, img, arch *mem.Store, llc LLC) Controller {
		return NewUncompressed(d, img, arch, llc)
	}},
	{"nextline", func(d *dram.DRAM, img, arch *mem.Store, llc LLC) Controller {
		return NewNextLinePrefetch(d, img, arch, llc)
	}},
	{"ideal", func(d *dram.DRAM, img, arch *mem.Store, llc LLC) Controller {
		return NewIdealTMC(d, img, arch, llc)
	}},
	{"table-tmc", func(d *dram.DRAM, img, arch *mem.Store, llc LLC) Controller {
		c, err := NewTableTMC(d, img, arch, llc, fuzzMetaBase, 1<<10)
		if err != nil {
			panic(err)
		}
		return c
	}},
	{"memzip", func(d *dram.DRAM, img, arch *mem.Store, llc LLC) Controller {
		c, err := NewMemZip(d, img, arch, llc, fuzzMetaBase, 1<<10)
		if err != nil {
			panic(err)
		}
		return c
	}},
	{"ptmc", func(d *dram.DRAM, img, arch *mem.Store, llc LLC) Controller {
		return NewPTMC(d, img, arch, llc, fuzzSeed)
	}},
	{"dynamic-ptmc", func(d *dram.DRAM, img, arch *mem.Store, llc LLC) Controller {
		return NewPTMC(d, img, arch, llc, fuzzSeed, WithDynamic(2, 0.25, false))
	}},
}

// fuzzValue is the line value selected by sel for address a: zero,
// compressible at three strengths, or colliding with the current markers
// (a compression marker in the tail, or the whole Marker-IL).
func fuzzValue(m *core.MarkerGen, a mem.LineAddr, sel byte) []byte {
	tag := sel>>3 | 1
	switch sel % 7 {
	case 0:
		return make([]byte, mem.LineSize)
	case 1:
		return compressibleLine(tag)
	case 2:
		return pairOnlyLine(tag)
	case 3, 4:
		return incompressibleLine(uint64(a)<<8 | uint64(sel))
	case 5:
		l := incompressibleLine(uint64(sel))
		mk := m.Marker2(a)
		if sel&8 != 0 {
			mk = m.Marker4(a)
		}
		binary.LittleEndian.PutUint32(l[60:], mk)
		return l
	default:
		il := m.MarkerIL(a)
		return il[:]
	}
}

// controllerRun is one scheme driven by one fuzz input, against init (each
// lazily registered line's first-touch value) and want, the flat
// last-written-value oracle.
type controllerRun struct {
	t       *testing.T
	scheme  string
	r       *testRig
	gen     *core.MarkerGen // value markers for schemes without their own
	init    map[mem.LineAddr][]byte
	want    map[mem.LineAddr][]byte
	pending map[mem.LineAddr]bool // reads in flight (the simulator's MSHR)

	inj         *fault.Injector // ptmc and dynamic-ptmc only
	errs0, deg0 uint64          // IntegrityErrs and Degradations() after the last scrub
}

// markers returns the generation colliding values are built against: the
// controller's current one for the PTMC family.
func (c *controllerRun) markers() *core.MarkerGen {
	if p, ok := c.r.ctrl.(*PTMC); ok {
		return p.Markers()
	}
	return c.gen
}

// touch first-touches a's page if needed, with the simulator's protocol:
// register the page lazily in both stores, screen every line from two
// words, then InitLine the screened-in lines in ascending order.
func (c *controllerRun) touch(a mem.LineAddr, sel byte) {
	base := a &^ (mem.PageLines - 1)
	if c.r.arch.Touched(base) {
		return
	}
	var screened []mem.LineAddr
	for i := mem.LineAddr(0); i < mem.PageLines; i++ {
		v := fuzzValue(c.markers(), base+i, sel+byte(i)*37)
		c.init[base+i], c.want[base+i] = v, v
	}
	c.r.img.MarkLazy(base)
	c.r.arch.MarkLazy(base)
	for i := mem.LineAddr(0); i < mem.PageLines; i++ {
		v := c.init[base+i]
		if c.r.ctrl.InitScreen(base+i, binary.LittleEndian.Uint64(v), binary.LittleEndian.Uint32(v[60:])) {
			screened = append(screened, base+i)
		}
	}
	for _, a := range screened {
		c.r.ctrl.InitLine(a)
	}
}

// settle drains every read in flight when a synchronous op needs line a.
func (c *controllerRun) settle(a mem.LineAddr) {
	if c.pending[a] {
		c.r.drain()
	}
}

// check holds after every op: the architectural store equals the flat
// oracle, no fill decoded a wrong value and nothing degraded since the last
// injected fault was scrubbed, and a PTMC-family image is sound with the
// LLC's lines authoritative.
func (c *controllerRun) check(step int) {
	var buf [mem.LineSize]byte
	for a, v := range c.want {
		if !bytes.Equal(c.r.arch.ReadNoAlloc(a, buf[:]), v) {
			c.t.Fatalf("%s op %d: architectural line %d diverges from the last written value", c.scheme, step, a)
		}
	}
	if st := c.r.ctrl.Stats(); st.IntegrityErrs != c.errs0 || st.Degradations() != c.deg0 {
		c.t.Fatalf("%s op %d: %d integrity errors, %d degradations", c.scheme, step,
			st.IntegrityErrs-c.errs0, st.Degradations()-c.deg0)
	}
	if p, ok := c.r.ctrl.(*PTMC); ok {
		if _, err := p.VerifyImage(c.r.resident); err != nil {
			c.t.Fatalf("%s op %d: %v", c.scheme, step, err)
		}
	}
}

// inject runs one fault trial on line a's group with the fault kind sel
// selects: the trial must detect the fault or prove it harmless, never
// pass it silently, and leaves the image scrubbed.
func (c *controllerRun) inject(step int, a mem.LineAddr, sel byte) {
	c.r.drain()
	kind := fault.Kind(int(sel) % len(fault.Kinds()))
	tr, _, err := c.r.faultTrial(c.inj, kind, []mem.LineAddr{a}, nil)
	if err != nil {
		c.t.Fatalf("%s op %d: %v", c.scheme, step, err)
	}
	if tr.Outcome == FaultSilent {
		c.t.Fatalf("%s op %d: %v passed silently: %s", c.scheme, step, tr.Injection, tr.Detector)
	}
	st := c.r.ctrl.Stats()
	c.errs0, c.deg0 = st.IntegrityErrs, st.Degradations()
}

// runControllerOps drives one scheme through ops (three bytes each: op,
// line, value selector) and returns its final accounting.
func runControllerOps(t *testing.T, scheme string, build buildFunc, ops []byte) (Stats, dram.Stats) {
	c := &controllerRun{
		t: t, scheme: scheme, r: newRig(t, 64*64, build), gen: core.NewMarkerGen(fuzzSeed),
		init: map[mem.LineAddr][]byte{}, want: map[mem.LineAddr][]byte{}, pending: map[mem.LineAddr]bool{},
	}
	fill := func(a mem.LineAddr, buf []byte) { copy(buf, c.init[a]) }
	c.r.img.SetLazyFill(fill)
	c.r.arch.SetLazyFill(fill)
	if p, ok := c.r.ctrl.(*PTMC); ok && !p.oracle {
		c.inj = c.r.injector(fuzzSeed)
	}
	for step := 0; len(ops) >= 3; step++ {
		op, a, sel := ops[0]%6, mem.LineAddr(ops[1])%(fuzzPages*mem.PageLines), ops[2]
		ops = ops[3:]
		c.touch(a, sel)
		coreID := int(sel & 1)
		switch op {
		case 0: // synchronous read
			c.settle(a)
			c.r.read(coreID, a)
		case 1: // store: write-allocate, then the new value
			c.settle(a)
			v := fuzzValue(c.markers(), a, sel)
			c.r.write(coreID, a, v)
			c.want[a] = v
		case 2: // eviction (dirty or clean) through the controller
			c.settle(a)
			c.r.evict(a)
		case 3: // read left in flight, overlapping later ops
			if _, in := c.r.llc.Probe(a); in || c.pending[a] {
				break
			}
			c.pending[a] = true
			c.r.ctrl.Read(coreID, a, c.r.now, func(int64) { delete(c.pending, a) })
		case 4: // a few bus cycles pass
			for i := 0; i <= int(sel%8); i++ {
				c.r.now += 4
				c.r.ctrl.Tick(c.r.now)
			}
		case 5: // fault injection (ptmc and dynamic-ptmc)
			if c.inj != nil {
				c.inject(step, a, sel)
			}
		}
		c.check(step)
	}
	// Write everything back, then read every touched line: each fill
	// decodes the image and is checked against the architectural value.
	c.r.drain()
	c.r.flushAll()
	c.check(-2)
	for a := mem.LineAddr(0); a < fuzzPages*mem.PageLines; a++ {
		if _, ok := c.want[a]; ok {
			c.r.read(0, a)
		}
	}
	c.check(-1)
	return *c.r.ctrl.Stats(), c.r.d.Stats
}

// FuzzControllerOps runs random first-touch, read, store, eviction, in-
// flight read, tick and (ptmc, dynamic-ptmc) fault-injection sequences on a
// four-page memory under all seven schemes. After each op the
// architectural store must match a flat last-written-value map, no fill
// may decode a wrong value (IntegrityErrs), and a PTMC-family image must
// pass VerifyImage; an injected fault must be detected or harmless, never
// silent (the fault campaign's trial and oracle). At the end every line is
// written back and read again. Each input runs twice and must produce
// identical accounting.
func FuzzControllerOps(f *testing.F) {
	f.Add([]byte{1, 5, 1, 1, 6, 2, 2, 5, 0, 0, 5, 0})
	f.Add([]byte{1, 0, 5, 1, 1, 6, 1, 2, 12, 1, 3, 13, 2, 0, 0, 0, 0, 0, 0, 1, 0})
	f.Add([]byte{3, 8, 1, 3, 9, 1, 1, 9, 3, 4, 0, 7, 0, 10, 1, 2, 9, 0, 0, 9, 0})
	f.Add(bytes.Repeat([]byte{1, 0x41, 5, 1, 0x42, 13, 3, 0x80, 1, 2, 0x41, 0, 4, 0, 3}, 24))
	// Fault injection: every kind against a 4:1 unit, then against pairs,
	// singles and marker-colliding lines, with reads in flight.
	f.Add([]byte{1, 0, 1, 1, 1, 8, 1, 2, 15, 1, 3, 22, 2, 0, 0,
		5, 0, 0, 5, 1, 1, 5, 2, 2, 5, 3, 3, 5, 0, 4, 5, 1, 5, 5, 2, 6, 0, 1, 0})
	f.Add([]byte{1, 4, 2, 1, 5, 9, 1, 6, 3, 1, 7, 5, 2, 6, 0, 2, 4, 0, 3, 0x48, 1,
		5, 4, 0, 5, 5, 1, 5, 6, 2, 5, 7, 3, 3, 0x49, 0, 5, 6, 4, 5, 7, 5, 5, 4, 6, 0, 5, 0})
	// A bit flip under a clean resident line stays latent until the
	// trial's flush puts the image back in charge.
	f.Add([]byte{1, 0, 3, 2, 0, 0, 0, 0, 0, 5, 0, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 3*256 {
			ops = ops[:3*256]
		}
		for _, sc := range fuzzSchemes {
			st1, d1 := runControllerOps(t, sc.name, sc.build, ops)
			st2, d2 := runControllerOps(t, sc.name, sc.build, ops)
			if st1 != st2 || !reflect.DeepEqual(d1, d2) {
				t.Fatalf("%s: accounting differs across identical runs:\n%+v\n%+v", sc.name, st1, st2)
			}
		}
	})
}
