// Package cpu models the out-of-order cores at USIMM's fidelity: a
// reorder-buffer window, N-wide fetch and in-order retire, immediate
// completion for non-memory instructions, and memory instructions that
// complete when the hierarchy answers. Memory-level parallelism — multiple
// misses in flight per core — emerges from the ROB window, which is what
// makes the model bandwidth-sensitive.
package cpu

import "ptmc/internal/workload"

// MemAccess is the hierarchy hook: the core calls it for each memory
// instruction; done must fire at the CPU cycle the load would complete.
// Stores retire without waiting (store-buffer semantics) but still call
// done for bookkeeping.
type MemAccess func(core int, vaddr uint64, write bool, now int64, done func(completeAt int64))

// Config sizes a core (Table I: 4-wide OoO, USIMM's 192-entry ROB).
type Config struct {
	ROB         int
	FetchWidth  int
	RetireWidth int
}

// DefaultConfig returns the paper's core configuration.
func DefaultConfig() Config {
	return Config{ROB: 192, FetchWidth: 4, RetireWidth: 4}
}

const notDone = int64(1<<62 - 1)

// NeverWake is NextWake's "no self-scheduled event" sentinel: the core can
// only progress when an outstanding memory completion fires.
const NeverWake = notDone

// noopDone is the shared completion callback for stores (retirement does
// not wait on them).
func noopDone(int64) {}

// Core is one simulated core fed by a workload stream.
type Core struct {
	id     int
	cfg    Config
	stream workload.Source
	access MemAccess

	rob   []int64 // completion cycle per in-flight instruction
	head  int
	tail  int
	count int

	gapLeft int         // non-memory instructions pending before nextOp
	nextOp  workload.Op // memory op waiting to enter the ROB
	haveOp  bool        // nextOp holds a fetched-but-unentered memory op

	// doneFns holds one completion callback per ROB slot, built once at
	// construction. Loads used to allocate a fresh closure per access (and
	// nextOp a fresh Op per stream advance), which made the fetch path the
	// simulator's largest allocation site; a slot's callback is identical
	// across all its occupants, so both are hoisted here.
	doneFns []func(completeAt int64)

	retired  int64
	limit    int64
	finished int64 // cycle the limit-th instruction retired (-1 until then)
}

// New builds a core.
func New(id int, cfg Config, stream workload.Source, access MemAccess) *Core {
	c := &Core{
		id:       id,
		cfg:      cfg,
		stream:   stream,
		access:   access,
		rob:      make([]int64, cfg.ROB),
		finished: -1,
	}
	c.doneFns = make([]func(int64), cfg.ROB)
	for i := range c.doneFns {
		idx := i
		c.doneFns[i] = func(completeAt int64) { c.rob[idx] = completeAt }
	}
	return c
}

// SetLimit sets the retirement target; the core stops fetching once
// reached. Call before running.
func (c *Core) SetLimit(n int64) { c.limit = n }

// Retired returns the number of retired instructions.
func (c *Core) Retired() int64 { return c.retired }

// FinishedAt returns the cycle the core hit its limit, or -1.
func (c *Core) FinishedAt() int64 { return c.finished }

// Done reports whether the core has retired its limit.
func (c *Core) Done() bool { return c.finished >= 0 }

// ResetWindow restarts retirement counting (end of warmup): retired
// instructions so far are forgotten, the limit applies afresh.
func (c *Core) ResetWindow(limit int64) {
	c.retired = 0
	c.limit = limit
	c.finished = -1
}

// Cycle advances the core by one CPU cycle.
func (c *Core) Cycle(now int64) {
	// Retire in order.
	for n := 0; n < c.cfg.RetireWidth && c.count > 0; n++ {
		if c.rob[c.head] > now {
			break
		}
		c.head = (c.head + 1) % len(c.rob)
		c.count--
		c.retired++
		if c.finished < 0 && c.retired >= c.limit {
			c.finished = now
		}
	}
	if c.finished >= 0 {
		return // target reached: stop fetching, let the window drain
	}
	// Fetch up to width.
	for n := 0; n < c.cfg.FetchWidth && c.count < len(c.rob); n++ {
		if c.gapLeft == 0 && !c.haveOp {
			op := c.stream.Next()
			c.gapLeft = op.Gap
			c.nextOp = op
			c.haveOp = true
		}
		slot := c.tail
		c.tail = (c.tail + 1) % len(c.rob)
		c.count++
		if c.gapLeft > 0 {
			c.gapLeft--
			c.rob[slot] = now + 1 // non-memory op
			continue
		}
		op := c.nextOp
		c.haveOp = false
		if op.Write {
			// Stores retire from the store buffer immediately; the
			// hierarchy still sees the access.
			c.rob[slot] = now + 1
			c.access(c.id, op.VAddr, true, now, noopDone)
			continue
		}
		c.rob[slot] = notDone
		c.access(c.id, op.VAddr, false, now, c.doneFns[slot])
	}
}

// Stream exposes the core's workload source (data synthesis callbacks).
func (c *Core) Stream() workload.Source { return c.stream }

// NextWake returns the earliest CPU cycle > now at which Cycle can change
// the core's state, or NeverWake if only an external event (a memory
// completion updating the ROB) can unblock it. The simulator's run loop
// uses this to skip cycles no core can use.
//
// The cases mirror Cycle exactly:
//   - finished core, empty ROB: fully drained, nothing ever happens again;
//   - fetching core with ROB space: fetch proceeds next cycle;
//   - otherwise progress waits on the ROB head: an unresolved load blocks
//     until its completion callback (external), a resolved entry retires
//     the cycle after its completion time. The head governs even for a
//     finished, draining core — those retires move the window across the
//     warmup/measure boundary and must not be skipped.
func (c *Core) NextWake(now int64) int64 {
	if c.finished >= 0 && c.count == 0 {
		return NeverWake
	}
	if c.finished < 0 && c.count < len(c.rob) {
		return now + 1
	}
	h := c.rob[c.head]
	if h == notDone {
		return NeverWake
	}
	if h <= now {
		return now + 1
	}
	return h
}
