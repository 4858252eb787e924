package server

// Regression tests for the settlement/SSE races fixed in this change.
// Each of these fails against the pre-fix code:
//
//   - TestFinishTerminalEventVisibleOnDone: finish() used to close j.done
//     BEFORE emitting the terminal event, so a waiter waking on <-j.done
//     could read the backlog without the done/failed event in it.
//   - TestEventsSSEGapHeals: emit() skips slow subscribers, and the
//     receive loop used to deliver whatever arrived next — a skipped
//     event's seq was below `last` forever, a permanent mid-stream gap.
//   - TestTransientStoreFaultRequeuesInProcess: a store write failing
//     mid-settlement used to leave the job "running" forever with the
//     tenant's quota unit held (zombie job + quota leak).

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ptmc/internal/sim"
)

// newHTTPServer wraps an already-built server (e.g. one with fault hooks
// armed pre-boot) in an httptest server with drain-on-cleanup.
func newHTTPServer(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return hs
}

// TestFinishTerminalEventVisibleOnDone pins the fixed invariant: by the
// time j.done is observably closed, the terminal event has already been
// delivered (backlog appended, subscriber channels offered). The old
// ordering — close(j.done), unlock, THEN emit — broke it: a subscriber
// waking on <-j.done could find no done/failed event and end its SSE
// stream without ever reporting the outcome.
//
// The schedule is forced, not raced. A blocker goroutine is queued on
// j.mu behind finish long enough (>1ms) to flip the mutex into starvation
// mode, whose unlock hands ownership directly to the longest waiter. With
// the buggy ordering, finish's unlock (after close, before emit) hands
// j.mu to the blocker; the blocker then holds it until the waiter — woken
// by the close — has checked its subscriber channel, which the stalled
// emit has not reached yet. With the fixed ordering the event is in the
// channel before the close, whatever the schedule, so the test is
// deterministic-pass after the fix and detects the bug when any iteration
// wins the hand-off.
func TestFinishTerminalEventVisibleOnDone(t *testing.T) {
	const iters = 100
	var missing atomic.Int64
	for i := 0; i < iters; i++ {
		j := newJob("j", JobSpec{Spec: sim.Spec{Workload: "lbm06"}, Schemes: []string{"ptmc"}})
		ch := make(chan Event, 16)
		j.subscribe(0, ch)

		gate := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(4)
		j.mu.Lock() // park starver, finisher, blocker on the mutex, in order
		go func() { // starver: wakes to a re-taken lock, sets starvation mode
			defer wg.Done()
			j.mu.Lock()
			_ = j.state
			j.mu.Unlock()
		}()
		time.Sleep(2 * time.Millisecond)
		go func() { // finisher
			defer wg.Done()
			j.finish(StateDone, "", "")
		}()
		time.Sleep(2 * time.Millisecond)
		go func() { // blocker: receives j.mu by hand-off at finish's unlock
			defer wg.Done()
			j.mu.Lock()
			<-gate
			j.mu.Unlock()
		}()
		go func() { // waiter: the SSE handler's wake-on-done path
			defer wg.Done()
			<-j.done
			select {
			case ev := <-ch:
				if ev.Kind != "done" {
					missing.Add(1)
				}
			default:
				missing.Add(1) // woke on done, no terminal event delivered
			}
			close(gate)
		}()
		time.Sleep(2 * time.Millisecond)
		// Wake the starver but re-take the lock before it runs: it finds
		// the mutex held after waiting >1ms and flips it to starvation
		// (direct hand-off) mode, queued ahead of finisher and blocker.
		j.mu.Unlock()
		j.mu.Lock()
		time.Sleep(2 * time.Millisecond)
		j.mu.Unlock() // hand-off chain: starver -> finisher -> blocker
		wg.Wait()
		j.unsubscribe(ch)
	}
	if n := missing.Load(); n > 0 {
		t.Fatalf("%d/%d iterations woke on j.done before the terminal event was delivered", n, iters)
	}
}

func TestEventsSSEGapHeals(t *testing.T) {
	release := make(chan struct{})
	stub := func(ctx context.Context, c sim.Config) (*sim.Result, error) {
		select {
		case <-release:
			return fakeResult(c), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	s, hs := newTestServer(t, nil, stub)
	_, st := submit(t, hs, tinySpec)
	waitState(t, hs, st.ID, StateRunning)
	j := s.lookup(st.ID)

	// Connect a live SSE client, then burst far more events than its
	// subscriber channel (cap 16) can hold: emit drops what doesn't fit,
	// so the client's live feed has holes it can only close by refilling
	// from the backlog when it sees the sequence jump.
	req, _ := http.NewRequest("GET", hs.URL+"/jobs/"+st.ID+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// Wait until the handler is subscribed so the burst races it for real.
	deadline := time.Now().Add(5 * time.Second)
	for {
		j.mu.Lock()
		n := len(j.subs)
		j.mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("SSE handler never subscribed")
		}
		time.Sleep(time.Millisecond)
	}
	const burst = 1000
	for i := 0; i < burst; i++ {
		j.emit("scheme", fmt.Sprintf("burst %d", i))
	}
	close(release)
	waitState(t, hs, st.ID, StateDone)

	// The stream must deliver every sequence number exactly once, in
	// order, no holes — however many live events were dropped.
	var seqs []int
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if line := sc.Text(); strings.HasPrefix(line, "id: ") {
			n, err := strconv.Atoi(strings.TrimPrefix(line, "id: "))
			if err != nil {
				t.Fatalf("bad id line %q", line)
			}
			seqs = append(seqs, n)
		}
	}
	if len(seqs) < burst {
		t.Fatalf("stream delivered %d events, want >= %d", len(seqs), burst)
	}
	for i, n := range seqs {
		if n != i+1 {
			t.Fatalf("gap in delivered stream at index %d: got seq %d, want %d "+
				"(skipped live events were never healed from the backlog)", i, n, i+1)
		}
	}
}

func TestTransientStoreFaultRequeuesInProcess(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Fault injection: the first two result-artifact writes fail with a
	// transient error (disk hiccup), the third succeeds. Unlike the crash
	// hook this does NOT wedge the store — exactly the case the in-process
	// retry path exists for.
	var mu sync.Mutex
	faults := 2
	store.fault = func(op string) error {
		if op != "result" {
			return nil
		}
		mu.Lock()
		defer mu.Unlock()
		if faults > 0 {
			faults--
			return errors.New("transient disk hiccup")
		}
		return nil
	}
	s, err := newFromStore(Config{
		Dir: dir, Workers: 1, Parallel: 1, QueueCap: 8,
		TenantQuota: 1, // one in-flight job per tenant: a leak would 429 the follow-up
		Backoff:     time.Millisecond,
		RunSim: func(ctx context.Context, c sim.Config) (*sim.Result, error) {
			return fakeResult(c), nil
		},
	}, store)
	if err != nil {
		t.Fatal(err)
	}
	hs := newHTTPServer(t, s)

	_, st := submit(t, hs, `{"workload":"lbm06","schemes":["ptmc"],"cores":2,"warmup_instr":100,"measure_instr":200,"tenant":"leaky"}`)
	// Pre-fix: the job wedges in "running" forever and this times out.
	waitState(t, hs, st.ID, StateDone)

	if got := s.m.storeRetries.Load(); got < 2 {
		t.Errorf("store_retries = %d, want >= 2", got)
	}
	// The requeued edge is visible on the event stream.
	j := s.lookup(st.ID)
	var requeued int
	for _, ev := range j.backlogAfter(0) {
		if ev.Kind == "requeued" {
			requeued++
		}
	}
	if requeued != 2 {
		t.Errorf("saw %d requeued events, want 2", requeued)
	}
	// Quota not leaked: the same tenant (quota 1) can run another job now.
	code, st2 := submit(t, hs, `{"workload":"mcf06","schemes":["ptmc"],"cores":2,"warmup_instr":100,"measure_instr":200,"tenant":"leaky"}`)
	if code != http.StatusAccepted {
		t.Fatalf("follow-up submit for tenant = %d, want 202 (quota unit leaked?)", code)
	}
	waitState(t, hs, st2.ID, StateDone)
}
