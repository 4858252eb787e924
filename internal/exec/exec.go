// Package exec is the concurrent experiment engine shared by the paper
// harness and the CLI tools. It provides three pieces:
//
//   - Pool: a bounded worker pool (default size GOMAXPROCS) that caps how
//     many simulations run at once, however many goroutines submit work;
//   - Cache: a singleflight-deduplicated, mutex-guarded memoization table,
//     so concurrent requests for the same key execute the computation
//     exactly once and everyone shares the result;
//   - Pool.ForEach: a deterministic fan-out helper that runs an indexed
//     job set over the pool and cancels the remainder on first error.
//
// The simulations themselves are embarrassingly parallel (every sim.Run
// builds its own memory image, caches, and seeded streams), so the engine
// only has to bound concurrency and deduplicate shared runs — it never
// needs to synchronize inside a simulation.
//
// The engine is panic-safe: a job that panics is converted into a
// *PanicError carrying the panic value and stack, its worker slot is
// released, and (for Cache.DoJob) every waiter on the flight is unblocked
// with that error. One bad configuration can fail its own job but can
// never deadlock or shrink the pool.
package exec

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"ptmc/internal/obs"
)

// PanicError is the typed error a panicking job is converted into. The
// original panic value and the goroutine stack at the point of the panic
// are preserved for diagnosis.
type PanicError struct {
	Value any    // the value passed to panic()
	Stack []byte // debug.Stack() captured inside the recovering frame
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("exec: job panicked: %v", e.Value)
}

// RetryableError marks an error as transient: jobs run with
// JobOptions.Attempts > 1 retry when they return one. Wrap with Retryable,
// test with IsRetryable; errors.Is/As unwrap through it.
type RetryableError struct{ Err error }

func (e *RetryableError) Error() string { return e.Err.Error() }
func (e *RetryableError) Unwrap() error { return e.Err }

// Retryable wraps err so that retry-enabled jobs re-run it. A nil err
// returns nil.
func Retryable(err error) error {
	if err == nil {
		return nil
	}
	return &RetryableError{Err: err}
}

// IsRetryable reports whether err is (or wraps) a RetryableError.
func IsRetryable(err error) bool {
	var re *RetryableError
	return errors.As(err, &re)
}

// JobOptions bounds one job's execution. The zero value means: no
// timeout, a single attempt, no backoff.
type JobOptions struct {
	// Timeout, when positive, is the per-attempt deadline: the job's
	// context is cancelled after this duration. Jobs must honor their
	// context for the deadline to take effect (sim.RunContext does).
	Timeout time.Duration
	// Attempts is the total number of tries for a job whose error is
	// retryable (IsRetryable). Values below 1 mean one attempt.
	Attempts int
	// Backoff is the base wait before the first retry; it doubles on each
	// subsequent retry. The actual sleep is jittered — a uniformly random
	// duration in [Backoff/2, Backoff) — so a burst of jobs that failed
	// together (a shared dependency hiccup, a drained resource) does not
	// retry in lockstep. The waiting job holds its pool slot (retries are
	// expected to be rare and short), but the sleep is context-aware: a
	// cancelled job abandons the backoff immediately, so a draining
	// service is never blocked behind a sleeping retry.
	Backoff time.Duration
}

// jitter maps a base backoff to the jittered sleep: uniform in
// [d/2, d). Equal-jitter keeps the expected wait at 3/4 d while spreading
// simultaneous retriers across half the window. The rand source is a
// package variable only so tests can pin it.
var jitterInt63n = rand.Int63n

func jitter(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	half := d / 2
	return half + time.Duration(jitterInt63n(int64(half)))
}

// Pool bounds the number of jobs executing concurrently. The zero Pool is
// not usable; construct with NewPool.
//
// Every pool keeps two log-bucketed histograms — nanoseconds a job waited
// for a slot, and nanoseconds each attempt ran — as its scheduling health
// signal: a queue-wait p99 near the run-time p50 means the pool is the
// bottleneck, not the simulations. The histograms are atomic counters, so
// the accounting adds two clock reads per job to work that is a whole
// simulation.
type Pool struct {
	sem chan struct{}

	queueWait *obs.Histogram // ns blocked waiting for a worker slot
	runTime   *obs.Histogram // ns executing, one observation per attempt
	tr        *obs.Tracer    // optional: one KindJob span per attempt
}

// NewPool returns a pool running at most n jobs at once; n <= 0 selects
// runtime.GOMAXPROCS(0), i.e. one job per available CPU.
func NewPool(n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &Pool{
		sem:       make(chan struct{}, n),
		queueWait: obs.NewHistogram("pool.queue_wait_ns"),
		runTime:   obs.NewHistogram("pool.run_time_ns"),
	}
}

// Size reports the worker count.
func (p *Pool) Size() int { return cap(p.sem) }

// QueueWait exposes the slot-wait histogram (nanoseconds per job).
func (p *Pool) QueueWait() *obs.Histogram { return p.queueWait }

// RunTime exposes the execution-time histogram (nanoseconds per attempt).
func (p *Pool) RunTime() *obs.Histogram { return p.runTime }

// SetTracer attaches a tracer that receives one job span (wall-clock
// microseconds) per attempt; nil detaches.
func (p *Pool) SetTracer(t *obs.Tracer) { p.tr = t }

// acquire blocks until a worker slot frees up or ctx is cancelled.
func (p *Pool) acquire(ctx context.Context) error {
	start := time.Now()
	select {
	case p.sem <- struct{}{}:
		p.queueWait.Observe(time.Since(start).Nanoseconds())
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (p *Pool) release() { <-p.sem }

// safeCall invokes fn, converting a panic into a *PanicError.
func safeCall(fn func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	return fn()
}

// Run executes fn on the pool, blocking until a slot is free. It returns
// ctx's error without running fn if the context is cancelled first. A
// panic in fn is returned as a *PanicError; the slot is always released.
func (p *Pool) Run(ctx context.Context, fn func() error) error {
	if err := p.acquire(ctx); err != nil {
		return err
	}
	defer p.release()
	return p.callOnce(ctx, 0, func(context.Context) error { return fn() })
}

// RunJob executes fn on the pool under opts: a per-attempt timeout (via a
// derived context fn must honor) and bounded retry-with-backoff for
// attempts that return a retryable error (see Retryable). Panics convert
// to *PanicError and are not retried. The slot is held across retries.
func (p *Pool) RunJob(ctx context.Context, opts JobOptions, fn func(ctx context.Context) error) error {
	if err := p.acquire(ctx); err != nil {
		return err
	}
	defer p.release()
	return p.attempt(ctx, opts, fn)
}

// attempt runs fn (already holding a slot) under opts.
func (p *Pool) attempt(ctx context.Context, opts JobOptions, fn func(ctx context.Context) error) error {
	attempts := opts.Attempts
	if attempts < 1 {
		attempts = 1
	}
	backoff := opts.Backoff
	var err error
	for try := 0; try < attempts; try++ {
		// The first attempt always runs: a job that acquired its slot is
		// "already executing" in ForEach's contract, even if the fan-out was
		// cancelled meanwhile — that is what keeps error selection
		// deterministic. Only retries re-check the context.
		if try > 0 {
			if backoff > 0 {
				t := time.NewTimer(jitter(backoff))
				select {
				case <-t.C:
				case <-ctx.Done():
					t.Stop()
					return ctx.Err()
				}
				backoff *= 2
			}
			if ctx.Err() != nil {
				return ctx.Err()
			}
		}
		err = p.callOnce(ctx, opts.Timeout, fn)
		if err == nil || !IsRetryable(err) {
			return err
		}
	}
	return err
}

// callOnce runs one attempt with its own deadline, panic conversion, and
// run-time accounting.
func (p *Pool) callOnce(ctx context.Context, timeout time.Duration, fn func(ctx context.Context) error) error {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	start := time.Now()
	err := safeCall(func() error { return fn(ctx) })
	d := time.Since(start)
	p.runTime.Observe(d.Nanoseconds())
	if p.tr != nil {
		dur := d.Microseconds()
		if dur < 1 {
			dur = 1 // a zero-duration span renders as an instant mark
		}
		p.tr.Emit(obs.KindJob, start.UnixMicro(), dur, 0, 0, 0)
	}
	return err
}

// ForEach runs fn(ctx, i) for every i in [0, n) on the pool. The first
// failure cancels the context handed to the remaining jobs (jobs already
// executing run to completion — simulations are not interruptible — but
// queued jobs abort before starting). The returned error is deterministic
// regardless of completion order: the lowest-index real failure, falling
// back to the lowest-index cancellation. A panicking job fails with a
// *PanicError; the other jobs and the pool are unaffected.
func (p *Pool) ForEach(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	return p.ForEachJob(ctx, n, JobOptions{}, fn)
}

// ForEachJob is ForEach with per-job options (timeout and retry; see
// JobOptions and RunJob).
func (p *Pool) ForEachJob(ctx context.Context, n int, opts JobOptions, fn func(ctx context.Context, i int) error) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		if err := p.acquire(ctx); err != nil {
			errs[i] = err
			break
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer p.release()
			if err := p.attempt(ctx, opts, func(ctx context.Context) error {
				return fn(ctx, i)
			}); err != nil {
				errs[i] = err
				cancel()
			}
		}(i)
	}
	wg.Wait()
	return FirstError(errs)
}

// FirstError returns the lowest-index non-cancellation error in errs,
// falling back to the lowest-index cancellation, or nil. It is the
// deterministic error-selection rule used throughout the engine: whatever
// order parallel jobs finish in, the reported error is the one the serial
// loop would have hit first.
func FirstError(errs []error) error {
	var fallback error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if !errors.Is(err, context.Canceled) {
			return err
		}
		if fallback == nil {
			fallback = err
		}
	}
	return fallback
}

// flight is one in-progress or completed computation.
type flight[V any] struct {
	done chan struct{} // closed when val/err are final
	val  V
	err  error
}

// Cache memoizes computations by string key. Concurrent DoJob calls for
// the same key collapse into a single execution (singleflight): one
// caller becomes the leader and runs the function on the pool; the rest
// block until the leader finishes and then share its result. Successful
// results are cached forever; failures are forgotten so a later call may
// retry.
type Cache[V any] struct {
	pool *Pool
	mu   sync.Mutex
	m    map[string]*flight[V]
}

// NewCache returns an empty cache executing its computations on pool.
func NewCache[V any](pool *Pool) *Cache[V] {
	return &Cache[V]{pool: pool, m: make(map[string]*flight[V])}
}

// DoJob returns the value for key, computing it with fn at most once
// across all concurrent callers. ran reports whether this call executed
// fn (false for cache hits and for waiters that joined an in-flight
// computation). The leader holds a pool slot while fn runs under opts —
// per-attempt timeout via a derived context fn must honor, and bounded
// jittered retry for attempts returning a retryable error (see
// Retryable); waiters hold none, so a thousand goroutines asking for the
// same key cost one worker. If fn panics, the leader and every waiter
// receive a *PanicError (not retried), the flight is forgotten (a later
// call retries), and the pool slot is released.
func (c *Cache[V]) DoJob(ctx context.Context, key string, opts JobOptions, fn func(ctx context.Context) (V, error)) (v V, ran bool, err error) {
	c.mu.Lock()
	if f, ok := c.m[key]; ok {
		c.mu.Unlock()
		select {
		case <-f.done:
			return f.val, false, f.err
		case <-ctx.Done():
			return *new(V), false, ctx.Err()
		}
	}
	f := &flight[V]{done: make(chan struct{})}
	c.m[key] = f
	c.mu.Unlock()

	if err := c.pool.acquire(ctx); err != nil {
		f.err = err
		c.forget(key)
		close(f.done)
		return *new(V), false, err
	}
	// The deferred closure is the flight's single point of settlement: it
	// converts a panic, releases the slot, forgets failed flights, and
	// closes done exactly once — in that order — so waiters can never be
	// left blocked and the pool can never leak a slot, whatever fn did.
	func() {
		defer func() {
			if v := recover(); v != nil {
				f.err = &PanicError{Value: v, Stack: debug.Stack()}
			}
			c.pool.release()
			if f.err != nil {
				c.forget(key)
			}
			close(f.done)
		}()
		// attempt handles the timeout/retry/backoff envelope (including
		// its own panic conversion and run-time accounting); the recover
		// above is belt-and-braces for the envelope itself.
		f.err = c.pool.attempt(ctx, opts, func(ctx context.Context) error {
			val, err := fn(ctx)
			if err == nil {
				f.val = val
			}
			return err
		})
	}()
	return f.val, true, f.err
}

// forget removes a failed flight so the next DoJob retries it.
func (c *Cache[V]) forget(key string) {
	c.mu.Lock()
	delete(c.m, key)
	c.mu.Unlock()
}
