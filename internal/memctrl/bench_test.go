package memctrl

import (
	"testing"

	"ptmc/internal/cache"
	"ptmc/internal/dram"
	"ptmc/internal/mem"
	"ptmc/internal/obs"
)

// benchRig builds a controller with a small LLC, primed so that
// steady-state read misses of the benchmark footprint exercise the full
// decode path (for PTMC: markers, LLP, decompression) without first-touch
// setup.
type benchRig struct {
	llc  *testLLC
	ctrl tracedController
	now  int64
}

// tracedController is a scheme with base's SetTracer (every scheme).
type tracedController interface {
	Controller
	SetTracer(*obs.Tracer)
}

func newBenchRig(b testing.TB, lines int, build func(d *dram.DRAM, img, arch *mem.Store, llc LLC) Controller) *benchRig {
	b.Helper()
	d, err := dram.New(dram.DDR4())
	if err != nil {
		b.Fatal(err)
	}
	c, err := cache.New(cache.Config{SizeBytes: 64 * 64, Assoc: 4})
	if err != nil {
		b.Fatal(err)
	}
	llc := &testLLC{c: c}
	img, arch := mem.NewStore(), mem.NewStore()
	p := build(d, img, arch, llc).(tracedController)
	llc.ctrl = p
	r := &benchRig{llc: llc, ctrl: p}

	// Prime: initialize and write back every line compressed, then empty
	// the LLC so each benchmark read is a miss against compressed memory.
	done := func(int64) {}
	for i := 0; i < lines; i++ {
		a := mem.LineAddr(i)
		arch.Write(a, compressibleLine(byte(i)))
		p.InitLine(a)
		p.Read(0, a, r.now, done)
		r.drain(b)
		if e, ok := llc.Probe(a); ok {
			e.Dirty = true
		}
	}
	r.flush(b)
	return r
}

func (r *benchRig) drain(b testing.TB) {
	for i := 0; r.ctrl.Pending() > 0; i++ {
		r.now += 4
		r.ctrl.Tick(r.now)
		if i > 1_000_000 {
			b.Fatal("controller did not drain")
		}
	}
}

func (r *benchRig) flush(b testing.TB) {
	for {
		var victim cache.Entry
		found := false
		r.llc.c.ForEachValid(func(e *cache.Entry) {
			if !found {
				victim, found = *e, true
			}
		})
		if !found {
			return
		}
		r.llc.Drop(victim.Tag)
		r.ctrl.Evict(int(victim.Core), victim, r.now)
		r.drain(b)
	}
}

// BenchmarkPTMCReadMiss measures the controller's steady-state read-miss
// hot path — Read, queue, DRAM burst, decode, fill — with instrumentation
// disabled (the shipping default) and with a tracer attached. Run with
// -benchmem: the "tracer=off" case is the allocation budget the rest of
// the repo holds the hot path to (see TestDisabledTracerReadPathAllocs).
func BenchmarkPTMCReadMiss(b *testing.B) {
	const lines = 64
	for _, traced := range []struct {
		name string
		tr   *obs.Tracer
	}{
		{"tracer=off", nil},
		{"tracer=on", obs.NewTracer(1 << 10)},
	} {
		b.Run(traced.name, func(b *testing.B) {
			r := newBenchRig(b, lines, func(d *dram.DRAM, img, arch *mem.Store, llc LLC) Controller {
				return NewPTMC(d, img, arch, llc, 1)
			})
			r.ctrl.SetTracer(traced.tr)
			done := func(int64) {}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a := mem.LineAddr(i % lines)
				r.ctrl.Read(0, a, r.now, done)
				r.drain(b)
				r.llc.Drop(a) // clean drop: next iteration misses again
				traced.tr.Reset()
			}
		})
	}
}

// readMissAllocBudget is every scheme's allocation budget for one
// steady-state read miss with instrumentation disabled. It is zero: the
// completions a read waits on are pooled contexts with prebuilt callbacks
// (readOp, issueDone), in-flight reads are found through a slot index,
// and the probe bookkeeping, candidate lists and eviction planning are
// allocation-free (see alloc_test.go).
const readMissAllocBudget = 0

// TestDisabledTracerReadPathAllocs pins the read-miss hot path's
// allocation budget for every scheme (readMissAllocBudget) — and attaching
// a tracer must not add a single allocation on top, because Emit appends
// into a pre-sized buffer.
func TestDisabledTracerReadPathAllocs(t *testing.T) {
	const lines = 64
	measure := func(build func(d *dram.DRAM, img, arch *mem.Store, llc LLC) Controller, tr *obs.Tracer) float64 {
		r := newBenchRig(t, lines, build)
		r.ctrl.SetTracer(tr)
		done := func(int64) {}
		i := 0
		// Warm the steady state (fill buffers recycle, maps settle).
		for ; i < 4*lines; i++ {
			a := mem.LineAddr(i % lines)
			r.ctrl.Read(0, a, r.now, done)
			r.drain(t)
			r.llc.Drop(a)
			tr.Reset()
		}
		return testing.AllocsPerRun(2*lines, func() {
			a := mem.LineAddr(i % lines)
			i++
			r.ctrl.Read(0, a, r.now, done)
			r.drain(t)
			r.llc.Drop(a)
			tr.Reset()
		})
	}
	for _, sc := range fuzzSchemes {
		t.Run(sc.name, func(t *testing.T) {
			budget := float64(readMissAllocBudget)
			off := measure(sc.build, nil)
			on := measure(sc.build, obs.NewTracer(1<<10))
			t.Logf("%.1f allocs/op", off)
			if off > budget {
				t.Errorf("disabled-instrumentation read miss: %.1f allocs/op, budget %v", off, budget)
			}
			if on > off {
				t.Errorf("attaching a tracer added allocations: %.1f allocs/op vs %.1f disabled", on, off)
			}
		})
	}
}

// TestCoalescedReadMissAllocs: reads that coalesce onto a burst already in
// flight wait in pooled contexts too. Each step reads all four lines of a
// group in one window — under the compressing schemes, memory holds the
// group as one unit, so the later reads join the first one's burst — and
// must allocate nothing in steady state.
func TestCoalescedReadMissAllocs(t *testing.T) {
	const lines = 64
	for _, sc := range fuzzSchemes {
		t.Run(sc.name, func(t *testing.T) {
			r := newBenchRig(t, lines, sc.build)
			done := func(int64) {}
			g := 0
			step := func() {
				base := mem.LineAddr(g % lines &^ 3)
				g += 4
				for i := mem.LineAddr(0); i < 4; i++ {
					r.ctrl.Read(0, base+i, r.now, done)
				}
				r.drain(t)
				for i := mem.LineAddr(0); i < 4; i++ {
					r.llc.Drop(base + i)
				}
			}
			for i := 0; i < lines; i++ {
				step()
			}
			before := r.ctrl.Stats().CoalescedReads
			if n := testing.AllocsPerRun(lines, step); n != 0 {
				t.Errorf("coalescing read misses: %.1f allocs/op, want 0", n)
			}
			t.Logf("%d reads coalesced", r.ctrl.Stats().CoalescedReads-before)
		})
	}
}
