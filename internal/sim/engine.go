package sim

import (
	"context"
	"fmt"

	"ptmc/internal/cpu"
	"ptmc/internal/mem"
	"ptmc/internal/vm"
	"ptmc/internal/workload"
)

// source is a workload.Source that can also synthesize a line at its
// first-touch value (workload.Stream.FillLineInit: mutation count provably
// zero, version-map lookup skipped). Every page initializes lazily from
// it, so sim.New requires it of every stream.
type source interface {
	workload.Source
	FillLineInit(vline uint64, buf []byte)
}

// pageWorder screens a first-touched page without synthesizing it
// (workload.Stream.PageInitWords). A source that lacks it is screened from
// lines FillLineInit synthesizes, with an identical result.
type pageWorder interface {
	PageInitWords(vlineBase uint64, out *[vm.PageLines]workload.LineWords)
}

// pageOrigin identifies which stream's virtual page a physical page was
// allocated for — what archLine needs to re-synthesize its lines.
type pageOrigin struct {
	core      int32
	vlineBase uint64
}

// archLine is the lazy-fill callback of both stores: it synthesizes one
// line of a page registered by initPage at its first-touch value. That is
// the architectural value of a line that was never stored to — the
// architectural store synthesizes a line only when it is read before being
// written, and a never-written line has never been mutated — and the image
// value of a line the controller never wrote.
func (s *Simulator) archLine(a mem.LineAddr, buf []byte) {
	o := s.origins[s.vmsys.PageIndex(uint64(a)/vm.PageLines)]
	s.streams[o.core].FillLineInit(o.vlineBase+uint64(a)%vm.PageLines, buf)
}

// initPage is first-touch page initialization: the page is registered
// lazily in both stores, so no line is synthesized or stored, and the
// controller screens each line from two of its words
// (Controller.InitScreen). The screened-in lines — possible marker
// collisions — go through InitLine after the whole page has been screened,
// in ascending address order.
func (s *Simulator) initPage(coreID int, pageBase mem.LineAddr, vlineBase uint64) {
	stream := s.streams[coreID]
	i := s.vmsys.PageIndex(uint64(pageBase) / vm.PageLines)
	if n := uint64(len(s.origins)); i >= n {
		s.origins = append(s.origins, make([]pageOrigin, i+1-n)...)
	}
	s.origins[i] = pageOrigin{core: int32(coreID), vlineBase: vlineBase}
	s.arch.MarkLazy(pageBase)
	s.img.MarkLazy(pageBase)
	if pw, ok := stream.(pageWorder); ok {
		pw.PageInitWords(vlineBase, &s.initWords)
	} else {
		for i := range s.initWords {
			stream.FillLineInit(vlineBase+uint64(i), s.initLine[:])
			s.initWords[i] = workload.WordsOf(s.initLine[:])
		}
	}
	var screened []mem.LineAddr // rare: possible marker collisions only
	for i, w := range s.initWords {
		if a := pageBase + mem.LineAddr(i); s.ctrl.InitScreen(a, w.W0, w.Tail) {
			screened = append(screened, a)
		}
	}
	for _, a := range screened {
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
