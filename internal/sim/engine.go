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
// zero, version lookup skipped). Every page initializes lazily from
// it, so sim.New requires it of every stream.
type source interface {
	workload.Source
	FillLineInit(vline uint64, buf []byte)
}

// pageBounder bounds a first-touched page's screen words without
// synthesizing its lines (workload.Stream.PageInitBounds), and gives the
// exact words of a line whose bound the screen could not settle
// (InitWords). A source that lacks it is screened from lines FillLineInit
// synthesizes, with an identical result.
type pageBounder interface {
	PageInitBounds(vlineBase uint64, lo *[vm.PageLines]mem.LineWords) (span mem.LineWords)
	InitWords(vline uint64) mem.LineWords
}

// pageOrigin identifies which stream's virtual page a physical page was
// allocated for — what the lazy fills need to synthesize its lines — and
// which of its lines a store has reached. The stream's core sits in the
// low bits of the page's first virtual line, a multiple of vm.PageLines,
// which keeps an entry at 16 bytes per allocated page.
type pageOrigin struct {
	vline  uint64 // the page's first virtual line | its core
	stored uint64 // bit i: a store has reached line i
}

// Every core number fits below a page's first virtual line.
const _ = uint(vm.PageLines - MaxCores)

// core returns the page's core.
func (o *pageOrigin) core() int { return int(o.vline % vm.PageLines) }

// line returns the virtual line of line a of the page.
func (o *pageOrigin) line(a mem.LineAddr) uint64 {
	return o.vline&^(vm.PageLines-1) + uint64(a)%vm.PageLines
}

// origin returns the origin of the page holding line a.
func (s *Simulator) origin(a mem.LineAddr) *pageOrigin {
	return &s.origins[s.vmsys.PageIndex(uint64(a)/vm.PageLines)]
}

// archLine is the architectural store's lazy fill: line a's current value,
// synthesized at its stream's mutation count. The production path never
// writes the architectural store — a store only advances the count
// (commitStore) — so this is every line's architectural value. A line no
// store has reached is at count 0, which FillLineInit synthesizes without
// looking the count up.
func (s *Simulator) archLine(a mem.LineAddr, buf []byte) {
	o := s.origin(a)
	if o.stored&(1<<(uint64(a)%vm.PageLines)) == 0 {
		s.streams[o.core()].FillLineInit(o.line(a), buf)
		return
	}
	s.streams[o.core()].FillLine(o.line(a), buf)
}

// imageLine is the image store's lazy fill: line a's first-touch value,
// which the image holds until the controller writes the line.
func (s *Simulator) imageLine(a mem.LineAddr, buf []byte) {
	o := s.origin(a)
	s.streams[o.core()].FillLineInit(o.line(a), buf)
}

// initPage is first-touch page initialization: the page is registered
// lazily in both stores, so no line is synthesized or stored, and only the
// lines screenPage screens in — possible marker collisions — go through
// InitLine, in ascending address order, after the whole page has been
// screened.
func (s *Simulator) initPage(coreID int, pageBase mem.LineAddr, vlineBase uint64) {
	i := s.vmsys.PageIndex(uint64(pageBase) / vm.PageLines)
	if n := uint64(len(s.origins)); i >= n {
		s.origins = append(s.origins, make([]pageOrigin, i+1-n)...)
	}
	s.origins[i] = pageOrigin{vline: vlineBase | uint64(coreID)}
	s.arch.MarkLazy(pageBase)
	s.img.MarkLazy(pageBase)
	for _, a := range s.screenPage(s.streams[coreID], pageBase, vlineBase) {
		s.ctrl.InitLine(a)
	}
}

// screenPage returns, in ascending order, the lines of the page at
// pageBase (virtual lines from vlineBase of stream) that the controller
// screens in at first touch (Controller.InitScreen). Each line is screened
// from a bound on two of its words; a line the bound cannot clear is
// screened again from its exact words, which decide. A stream that gives
// no bounds is screened from the exact words of the lines FillLineInit
// synthesizes.
func (s *Simulator) screenPage(stream source, pageBase mem.LineAddr, vlineBase uint64) []mem.LineAddr {
	pb, bounded := stream.(pageBounder)
	var span mem.LineWords
	if bounded {
		span = pb.PageInitBounds(vlineBase, &s.initWords)
	} else {
		for i := range s.initWords {
			stream.FillLineInit(vlineBase+uint64(i), s.scratch[:])
			s.initWords[i] = mem.WordsOf(s.scratch[:])
		}
	}
	exact := span == mem.LineWords{}
	var screened []mem.LineAddr // rare: possible marker collisions only
	for i, lo := range s.initWords {
		a := pageBase + mem.LineAddr(i)
		if !s.ctrl.InitScreen(a, mem.LineBound{Lo: lo, Span: span}) {
			continue
		}
		if !exact && !s.ctrl.InitScreen(a, mem.LineBound{Lo: pb.InitWords(vlineBase + uint64(i))}) {
			continue
		}
		screened = append(screened, a)
	}
	return screened
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
