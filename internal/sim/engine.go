package sim

import (
	"context"
	"fmt"

	"ptmc/internal/cpu"
	"ptmc/internal/mem"
	"ptmc/internal/vm"
)

// fillIniter is the first-touch specialization of workload.Source.FillLine
// (mutation count provably zero, version-map lookup skipped).
type fillIniter interface {
	FillLineInit(vline uint64, buf []byte)
}

// pageOrigin identifies which stream's virtual page a physical page was
// allocated for — what archLine needs to re-synthesize its lines.
type pageOrigin struct {
	core      int32
	vlineBase uint64
}

// archLine is the mem.Store lazy-fill callback for the architectural
// store: it synthesizes one line of a page registered by initPage. Version
// 0 is provably correct — the store synthesizes a line only when it has
// been read before being written, and a never-written line has never been
// mutated.
func (s *Simulator) archLine(a mem.LineAddr, buf []byte) {
	base := a &^ (mem.SlabLines - 1)
	o := s.origins[base]
	s.streams[o.core].(fillIniter).FillLineInit(o.vlineBase+uint64(a-base), buf)
}

// initPage is first-touch page initialization: every line is synthesized
// straight into the DRAM image and the controller is asked whether those
// raw bytes are a valid initial image (Controller.InitLineReady). The
// architectural page is either registered for on-demand synthesis
// (s.origins non-nil: every stream implements FillLineInit) or mirrored
// from the image eagerly (trace replay, whose versions are not provably
// 0). Marker collisions — lines that need the full InitLine path — are
// fixed up after the whole page has been checked, in ascending address
// order.
func (s *Simulator) initPage(coreID int, pageBase mem.LineAddr, vlineBase uint64) {
	imgSlab := s.img.Slab(pageBase)
	stream := s.streams[coreID]
	fill := stream.FillLine
	if f, ok := stream.(fillIniter); ok {
		fill = f.FillLineInit // skip the version lookup: first touch is version 0
	}
	var archSlab mem.Slab
	if s.origins != nil {
		s.origins[pageBase] = pageOrigin{core: int32(coreID), vlineBase: vlineBase}
		s.arch.MarkLazy(pageBase)
	} else {
		archSlab = s.arch.Slab(pageBase)
	}
	var collide []mem.LineAddr // rare: marker collisions only
	for i := 0; i < vm.PageLines; i++ {
		a := pageBase + mem.LineAddr(i)
		line := imgSlab.Line(i)
		fill(vlineBase+uint64(i), line)
		if !s.ctrl.InitLineReady(a, line) {
			// Colliding raw bytes stay in the image briefly; the fixup
			// below rewrites them before any read.
			collide = append(collide, a)
		}
		if s.origins == nil {
			copy(archSlab.Line(i), line)
		}
	}
	for _, a := range collide {
		s.ctrl.InitLine(a)
	}
}

// stopped applies the termination checks both run loops share, in order:
// every core finished its window (done), a fatal translation error, the
// cycle budget, and — every 4096 iterations — cancellation. The poll is
// iteration-counted, not keyed on s.now & 4095, because run skips cycles
// and a jump can step over every multiple of 4096.
func (s *Simulator) stopped(ctx context.Context, iter int, deadline, maxCycles int64) (done bool, err error) {
	done = true
	for _, c := range s.cores {
		if !c.Done() {
			done = false
			break
		}
	}
	switch {
	case done:
		return true, nil
	case s.fatal != nil:
		return false, s.fatal
	case s.now >= deadline:
		return false, fmt.Errorf("sim: exceeded %d cycles without finishing", maxCycles)
	case iter&4095 == 0 && ctx.Err() != nil:
		return false, fmt.Errorf("sim: interrupted at cycle %d: %w", s.now, ctx.Err())
	}
	return false, nil
}

// run advances the system until every core retires `limit` instructions
// (from its current window), maxCycles elapse, or ctx is cancelled. It does
// the reference loop's work (runReference: cores in index order, then the
// controller on bus multiples, then metrics snapshots) but jumps over every
// cycle on which nothing can happen: the next executed cycle is the
// earliest core wake (cpu.NextWake), controller event (NextEventCycle) or
// metrics boundary, clamped at the deadline so a budget overrun reports the
// same cycle. Each skipped bus tick is credited to the controller
// (SkippedTicks) exactly as a per-cycle tick would have counted it, and a
// core whose wake lies beyond the executed cycle provably no-ops, so its
// Cycle call is skipped too.
func (s *Simulator) run(ctx context.Context, limit, maxCycles int64) error {
	for i := range s.cores {
		s.cores[i].ResetWindow(limit)
	}
	s.windowStart = s.now
	deadline := s.now + maxCycles
	busRatio := int64(s.cfg.DRAM.BusRatio)
	wakes := make([]int64, len(s.cores))
	for iter := 0; ; iter++ {
		if done, err := s.stopped(ctx, iter, deadline, maxCycles); done || err != nil {
			return err
		}
		// Core wakes first (cheap, usually now+1), then the controller
		// schedule only if every core sleeps. A stale past controller bid
		// is harmless: the loop steps one cycle at a time until it is
		// consumed. Fill completions can move a core's wake only at a
		// controller tick, which runs after the cores within a cycle, so
		// the wakes computed here hold for the cycle about to execute.
		wake := int64(cpu.NeverWake)
		for i, c := range s.cores {
			w := c.NextWake(s.now)
			wakes[i] = w
			if w < wake {
				wake = w
			}
		}
		if wake > s.now+1 {
			if w := s.ctrl.NextEventCycle(s.now); w < wake {
				wake = w
			}
		}
		if s.reg != nil {
			if nb := (s.now/s.cfg.MetricsInterval + 1) * s.cfg.MetricsInterval; nb < wake {
				wake = nb
			}
		}
		if wake > deadline {
			wake = deadline // execute the deadline cycle, then fail above
		}
		if wake > s.now+1 {
			s.ctrl.SkippedTicks((wake-1)/busRatio - s.now/busRatio)
			s.now = wake - 1
		}
		s.now++
		for i, c := range s.cores {
			if wakes[i] <= s.now {
				c.Cycle(s.now)
			}
		}
		if s.now%busRatio == 0 {
			s.ctrl.Tick(s.now)
		}
		if s.reg != nil && s.now%s.cfg.MetricsInterval == 0 {
			s.reg.Snapshot(s.now)
		}
	}
}
