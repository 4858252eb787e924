package trace

import (
	"errors"
	"io"

	"ptmc/internal/mem"
	"ptmc/internal/vm"
	"ptmc/internal/workload"
)

// Capture wraps a workload.Source and tees every op it produces into a
// trace Writer. Value synthesis passes straight through.
type Capture struct {
	src workload.Source
	w   *Writer
	err error
}

// NewCapture builds the tee. Errors from the writer are sticky and
// reported by Err (a Source has no error channel of its own).
func NewCapture(src workload.Source, w *Writer) *Capture {
	return &Capture{src: src, w: w}
}

// Next implements workload.Source.
func (c *Capture) Next() workload.Op {
	op := c.src.Next()
	gap := op.Gap
	if gap > 65535 {
		gap = 65535
	}
	if err := c.w.Append(Event{VAddr: op.VAddr, Gap: uint16(gap), Write: op.Write}); err != nil && c.err == nil {
		c.err = err
	}
	return op
}

// FillLine implements workload.Source.
func (c *Capture) FillLine(vline uint64, buf []byte) { c.src.FillLine(vline, buf) }

// MutateLine implements workload.Source.
func (c *Capture) MutateLine(vline uint64, buf []byte) { c.src.MutateLine(vline, buf) }

// Err reports the first write error, if any.
func (c *Capture) Err() error { return c.err }

// Replay replays a recorded event sequence as a workload.Source,
// re-synthesizing line values deterministically from the mix descriptor in
// the trace header. When the events are exhausted the sequence loops
// (simulation horizons may exceed the recording).
type Replay struct {
	events []Event
	next   int
	Loops  int // completed passes over the recording

	values *workload.Stream
}

// NewReplay loads all events of a trace into memory and builds the source.
// The embedded workload.Stream provides value synthesis only; its access
// generator is unused.
func NewReplay(r *Reader) (*Replay, error) {
	var events []Event
	for {
		e, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		events = append(events, e)
	}
	if len(events) == 0 {
		return nil, ErrEmptyTrace
	}
	synth := &workload.Workload{
		Name: "trace-replay", Suite: "trace",
		FootprintBytes: 1 << 20, // unused by value synthesis
		MemFrac:        0.5, SeqRun: 1,
		Mix: r.Header.Mix,
	}
	return &Replay{
		events: events,
		values: synth.NewStream(r.Header.Seed),
	}, nil
}

// ErrEmptyTrace reports a trace with a header but no events.
var ErrEmptyTrace = errors.New("trace: no events")

// Next implements workload.Source.
func (t *Replay) Next() workload.Op {
	e := t.events[t.next]
	t.next++
	if t.next == len(t.events) {
		t.next = 0
		t.Loops++
	}
	return workload.Op{VAddr: e.VAddr, Gap: int(e.Gap), Write: e.Write}
}

// FillLine implements workload.Source.
func (t *Replay) FillLine(vline uint64, buf []byte) { t.values.FillLine(vline, buf) }

// MutateLine implements workload.Source.
func (t *Replay) MutateLine(vline uint64, buf []byte) { t.values.MutateLine(vline, buf) }

// FillLineInit is FillLine at first touch (workload.Stream.FillLineInit).
// It is sound for a replay for the same reason as for a live stream: a
// store must translate its page first, and translation is what triggers
// initialization, so a first-touched line is at version 0.
func (t *Replay) FillLineInit(vline uint64, buf []byte) { t.values.FillLineInit(vline, buf) }

// PageInitBounds bounds a first-touched page's screen words
// (workload.Stream.PageInitBounds).
func (t *Replay) PageInitBounds(vlineBase uint64, lo *[vm.PageLines]mem.LineWords) mem.LineWords {
	return t.values.PageInitBounds(vlineBase, lo)
}

// InitWords returns a first-touched line's exact screen words
// (workload.Stream.InitWords).
func (t *Replay) InitWords(vline uint64) mem.LineWords { return t.values.InitWords(vline) }

// Len returns the number of recorded events.
func (t *Replay) Len() int { return len(t.events) }
