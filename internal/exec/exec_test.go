package exec

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ptmc/internal/obs"
)

func TestPoolBoundsConcurrency(t *testing.T) {
	p := NewPool(3)
	var cur, max atomic.Int32
	err := p.ForEach(context.Background(), 32, func(ctx context.Context, i int) error {
		n := cur.Add(1)
		for {
			m := max.Load()
			if n <= m || max.CompareAndSwap(m, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := max.Load(); got > 3 {
		t.Errorf("observed %d concurrent jobs, pool size 3", got)
	}
}

func TestPoolDefaultSize(t *testing.T) {
	if NewPool(0).Size() < 1 {
		t.Error("default pool must have at least one worker")
	}
	if NewPool(7).Size() != 7 {
		t.Error("explicit pool size not honored")
	}
}

func TestForEachFirstErrorIsDeterministic(t *testing.T) {
	p := NewPool(8)
	// Fail several indices; whatever order they complete in, the reported
	// error must be the lowest failing index.
	for trial := 0; trial < 20; trial++ {
		err := p.ForEach(context.Background(), 16, func(ctx context.Context, i int) error {
			if i%5 == 3 { // fails at 3, 8, 13
				return fmt.Errorf("job %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "job 3 failed" {
			t.Fatalf("trial %d: got %v, want job 3 failed", trial, err)
		}
	}
}

func TestForEachCancelsQueuedJobs(t *testing.T) {
	p := NewPool(1)
	var started atomic.Int32
	err := p.ForEach(context.Background(), 100, func(ctx context.Context, i int) error {
		started.Add(1)
		return errors.New("boom")
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if n := started.Load(); n == 100 {
		t.Error("cancellation should stop queued jobs from starting")
	}
}

func TestCacheSingleflight(t *testing.T) {
	p := NewPool(8)
	c := NewCache[int](p)
	var computed atomic.Int32
	var ranCount atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < 64; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, ran, err := c.DoJob(context.Background(), "k", JobOptions{}, func(context.Context) (int, error) {
				computed.Add(1)
				time.Sleep(2 * time.Millisecond)
				return 42, nil
			})
			if err != nil || v != 42 {
				t.Errorf("DoJob = %d, %v", v, err)
			}
			if ran {
				ranCount.Add(1)
			}
		}()
	}
	wg.Wait()
	if computed.Load() != 1 {
		t.Errorf("computed %d times, want exactly 1", computed.Load())
	}
	if ranCount.Load() != 1 {
		t.Errorf("%d callers reported ran=true, want exactly 1", ranCount.Load())
	}
	v, ran, err := c.DoJob(context.Background(), "k", JobOptions{}, func(context.Context) (int, error) {
		return 0, errors.New("cache hit must not recompute")
	})
	if err != nil || v != 42 || ran {
		t.Errorf("cached DoJob = %d, ran=%v, %v; want 42 from the cache", v, ran, err)
	}
}

func TestCacheErrorsAreRetried(t *testing.T) {
	p := NewPool(1)
	c := NewCache[int](p)
	calls := 0
	_, _, err := c.DoJob(context.Background(), "k", JobOptions{}, func(context.Context) (int, error) {
		calls++
		return 0, errors.New("transient")
	})
	if err == nil {
		t.Fatal("want error")
	}
	v, ran, err := c.DoJob(context.Background(), "k", JobOptions{}, func(context.Context) (int, error) {
		calls++
		return 7, nil
	})
	if err != nil || v != 7 || !ran {
		t.Fatalf("retry: v=%d ran=%v err=%v", v, ran, err)
	}
	if calls != 2 {
		t.Errorf("calls = %d, want 2 (errors must not be cached)", calls)
	}
}

func TestCacheWaiterHonorsContext(t *testing.T) {
	p := NewPool(1)
	c := NewCache[int](p)
	release := make(chan struct{})
	go c.DoJob(context.Background(), "slow", JobOptions{}, func(context.Context) (int, error) {
		<-release
		return 1, nil
	})
	// Give the leader a moment to claim the flight.
	time.Sleep(5 * time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := c.DoJob(ctx, "slow", JobOptions{}, func(context.Context) (int, error) { return 2, nil })
	if !errors.Is(err, context.Canceled) {
		t.Errorf("waiter error = %v, want context.Canceled", err)
	}
	close(release)
}

func TestFirstErrorPrefersRealFailures(t *testing.T) {
	boom := errors.New("boom")
	errs := []error{nil, context.Canceled, boom, nil}
	if got := FirstError(errs); !errors.Is(got, boom) {
		t.Errorf("FirstError = %v, want boom over earlier cancellation", got)
	}
	if got := FirstError([]error{nil, context.Canceled}); !errors.Is(got, context.Canceled) {
		t.Errorf("FirstError = %v, want cancellation fallback", got)
	}
	if got := FirstError([]error{nil, nil}); got != nil {
		t.Errorf("FirstError = %v, want nil", got)
	}
}

// TestForEachPanicIsIsolated panics one job inside an 8-way ForEach and
// asserts the remaining jobs run, the caller gets a PanicError, and the
// pool remains fully usable afterwards (no leaked slots).
func TestForEachPanicIsIsolated(t *testing.T) {
	p := NewPool(8)
	var completed atomic.Int32
	var started sync.WaitGroup
	started.Add(8) // barrier: every job is executing before any panics
	err := p.ForEach(context.Background(), 8, func(ctx context.Context, i int) error {
		started.Done()
		started.Wait()
		if i == 3 {
			panic("job 3 exploded")
		}
		completed.Add(1)
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Value != "job 3 exploded" {
		t.Errorf("panic value = %v", pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Error("panic stack not captured")
	}
	// The other 7 jobs were already executing (8 slots) and must finish.
	if n := completed.Load(); n != 7 {
		t.Errorf("completed = %d, want 7", n)
	}
	// Pool stays usable at full capacity: all 8 slots must be acquirable.
	if err := p.ForEach(context.Background(), 16, func(ctx context.Context, i int) error {
		return nil
	}); err != nil {
		t.Fatalf("pool unusable after panic: %v", err)
	}
	if len(p.sem) != 0 {
		t.Errorf("%d slots leaked", len(p.sem))
	}
}

// TestCacheDoJobPanicUnblocksWaiters panics the singleflight leader and
// asserts every waiter returns a PanicError instead of deadlocking, the
// slot is released, and a later DoJob retries the key.
func TestCacheDoJobPanicUnblocksWaiters(t *testing.T) {
	p := NewPool(1) // one slot: a leaked slot would deadlock the retry below
	c := NewCache[int](p)
	start := make(chan struct{})
	var waiterErrs atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			_, _, err := c.DoJob(context.Background(), "boom", JobOptions{}, func(context.Context) (int, error) {
				time.Sleep(2 * time.Millisecond) // let waiters join the flight
				panic("leader exploded")
			})
			var pe *PanicError
			if errors.As(err, &pe) {
				waiterErrs.Add(1)
			} else {
				t.Errorf("waiter error = %v, want *PanicError", err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if n := waiterErrs.Load(); n != 8 {
		t.Errorf("%d callers saw the PanicError, want 8", n)
	}
	// The failed flight must be forgotten and the slot released.
	v, ran, err := c.DoJob(context.Background(), "boom", JobOptions{}, func(context.Context) (int, error) { return 9, nil })
	if err != nil || v != 9 || !ran {
		t.Fatalf("retry after panic: v=%d ran=%v err=%v", v, ran, err)
	}
	if len(p.sem) != 0 {
		t.Errorf("%d slots leaked", len(p.sem))
	}
}

func TestRunConvertsPanic(t *testing.T) {
	p := NewPool(2)
	err := p.RunJob(context.Background(), JobOptions{}, func(context.Context) error { panic(42) })
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Value != 42 {
		t.Fatalf("err = %v, want PanicError{42}", err)
	}
	if len(p.sem) != 0 {
		t.Error("slot leaked after panic")
	}
}

// TestRunJobTimeout verifies the per-attempt deadline reaches the job's
// context.
func TestRunJobTimeout(t *testing.T) {
	p := NewPool(1)
	err := p.RunJob(context.Background(), JobOptions{Timeout: 5 * time.Millisecond},
		func(ctx context.Context) error {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(5 * time.Second):
				return nil
			}
		})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

// TestRunJobRetriesRetryable verifies bounded retry-with-backoff: a
// retryable error re-runs up to Attempts times; a terminal error does not.
func TestRunJobRetriesRetryable(t *testing.T) {
	p := NewPool(1)
	calls := 0
	err := p.RunJob(context.Background(), JobOptions{Attempts: 3, Backoff: time.Microsecond},
		func(ctx context.Context) error {
			calls++
			if calls < 3 {
				return Retryable(errors.New("transient"))
			}
			return nil
		})
	if err != nil || calls != 3 {
		t.Fatalf("calls=%d err=%v, want 3 calls and success", calls, err)
	}

	calls = 0
	boom := errors.New("terminal")
	err = p.RunJob(context.Background(), JobOptions{Attempts: 3}, func(ctx context.Context) error {
		calls++
		return boom
	})
	if !errors.Is(err, boom) || calls != 1 {
		t.Fatalf("calls=%d err=%v, want 1 call and terminal error", calls, err)
	}

	// Retries exhausted: the last retryable error surfaces (and unwraps).
	calls = 0
	err = p.RunJob(context.Background(), JobOptions{Attempts: 2}, func(ctx context.Context) error {
		calls++
		return Retryable(boom)
	})
	if !errors.Is(err, boom) || !IsRetryable(err) || calls != 2 {
		t.Fatalf("calls=%d err=%v, want 2 calls and wrapped terminal error", calls, err)
	}
}

func TestPoolHistogramsAndJobTrace(t *testing.T) {
	p := NewPool(2)
	tr := obs.NewTracer(64)
	p.SetTracer(tr)
	const jobs = 8
	err := p.ForEach(context.Background(), jobs, func(context.Context, int) error {
		time.Sleep(time.Millisecond)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.RunTime().Count(); got != jobs {
		t.Errorf("run-time histogram count = %d, want %d", got, jobs)
	}
	if got := p.QueueWait().Count(); got != jobs {
		t.Errorf("queue-wait histogram count = %d, want %d", got, jobs)
	}
	// Each job slept ~1ms; the run-time histogram must reflect that scale.
	if p.RunTime().Quantile(0.5) < uint64(time.Millisecond/2) {
		t.Errorf("run-time p50 %d ns implausibly small for 1ms jobs", p.RunTime().Quantile(0.5))
	}
	events := tr.Events()
	if len(events) != jobs {
		t.Fatalf("job trace has %d events, want %d", len(events), jobs)
	}
	for _, e := range events {
		if e.Kind != obs.KindJob || e.Dur <= 0 {
			t.Fatalf("bad job event: %+v", e)
		}
	}
}

// TestBackoffJitterBounds pins the jitter window: a jittered backoff is
// uniform in [d/2, d) — never zero, never the full base — so a burst of
// simultaneous retriers spreads out instead of thundering back together.
func TestBackoffJitterBounds(t *testing.T) {
	const d = 100 * time.Millisecond
	sawLow, sawHigh := false, false
	for i := 0; i < 2000; i++ {
		j := jitter(d)
		if j < d/2 || j >= d {
			t.Fatalf("jitter(%v) = %v, want in [%v, %v)", d, j, d/2, d)
		}
		if j < d*5/8 {
			sawLow = true
		}
		if j > d*7/8 {
			sawHigh = true
		}
	}
	if !sawLow || !sawHigh {
		t.Errorf("jitter not spreading across the window (low=%v high=%v)", sawLow, sawHigh)
	}
	if jitter(0) != 0 || jitter(1) != 1 {
		t.Errorf("degenerate backoffs must pass through unchanged")
	}
}

// TestBackoffCancellationPrompt is the drain guarantee: cancelling a job
// that is asleep in its retry backoff interrupts the sleep immediately —
// a draining daemon must never wait out a pending retry. The backoff here
// is far longer than the test's patience; only the ctx-aware sleep lets
// it pass.
func TestBackoffCancellationPrompt(t *testing.T) {
	p := NewPool(1)
	ctx, cancel := context.WithCancel(context.Background())
	attempts := make(chan struct{}, 4)
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		done <- p.RunJob(ctx, JobOptions{Attempts: 3, Backoff: time.Hour},
			func(ctx context.Context) error {
				attempts <- struct{}{}
				return Retryable(errors.New("transient"))
			})
	}()
	// First attempt runs, then the job parks in its one-hour backoff.
	select {
	case <-attempts:
	case <-time.After(5 * time.Second):
		t.Fatal("first attempt never ran")
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancellation did not interrupt the backoff")
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("backoff held the job for %v after cancel", waited)
	}
	select {
	case <-attempts:
		t.Fatal("job re-attempted after cancellation")
	default:
	}
	if len(p.sem) != 0 {
		t.Error("slot leaked after cancelled backoff")
	}
}
