// Package exec is the concurrent experiment engine shared by the paper
// harness, the sweep command and the daemon. It has one way to run a
// simulation and one way to fan out a fixed job set:
//
//   - Pool: a bounded worker pool (default size GOMAXPROCS) that caps how
//     many simulations run at once, however many goroutines submit work,
//     and keeps queue-wait and run-time histograms;
//   - Cache.DoJob: a keyed, singleflight-deduplicated result table over a
//     pool. Concurrent requests for one key run the function once, on
//     one worker slot, under an optional per-run timeout, and share its
//     result; a failure is forgotten so a later request runs it again;
//   - Cache.DoAll: a settle-all fan-out of a keyed job set through
//     DoJob, with results in input order; every fan-out uses it, and
//     FirstError picks the error it reports.
//
// A simulation is a pure function of its run spec (every sim.Run builds
// its own memory image, caches and seeded streams), so the engine only
// has to bound concurrency and deduplicate equal runs. Re-running a failed
// simulation would fail the same way, so the engine never retries.
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

// Pool bounds the number of jobs executing concurrently. The zero Pool is
// not usable; construct with NewPool.
//
// Every pool keeps two log-bucketed histograms — nanoseconds a job waited
// for a slot, and nanoseconds each job ran — as its scheduling health
// signal: a queue-wait p99 near the run-time p50 means the pool is the
// bottleneck, not the simulations. The histograms are atomic counters, so
// the accounting adds two clock reads per job to work that is a whole
// simulation.
type Pool struct {
	sem chan struct{}

	queueWait *obs.Histogram // ns blocked waiting for a worker slot
	runTime   *obs.Histogram // ns executing, one observation per job
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

// RunTime exposes the execution-time histogram (nanoseconds per job).
func (p *Pool) RunTime() *obs.Histogram { return p.runTime }

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

// call runs fn (its caller already holds a slot) under an optional
// deadline — timeout > 0 derives a context fn must honor (sim.RunContext
// does) — converting a panic into a *PanicError and recording the run
// time.
func (p *Pool) call(ctx context.Context, timeout time.Duration, fn func(ctx context.Context) error) (err error) {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	start := time.Now()
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Value: v, Stack: debug.Stack()}
		}
		p.runTime.Observe(time.Since(start).Nanoseconds())
	}()
	return fn(ctx)
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
// results are cached forever; failures are forgotten so a later call runs
// the function again.
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
// computation). The leader holds a pool slot while fn runs; timeout > 0
// bounds that run through a derived context fn must honor. Waiters hold
// no slot, so a thousand goroutines asking for the same key cost one
// worker. If fn fails or panics, the leader and every waiter receive its
// error (a *PanicError for a panic), the flight is forgotten, and the
// pool slot is released.
func (c *Cache[V]) DoJob(ctx context.Context, key string, timeout time.Duration, fn func(ctx context.Context) (V, error)) (v V, ran bool, err error) {
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
	// The deferred settlement releases the slot, forgets a failed flight
	// and closes done exactly once — in that order — so waiters can never
	// be left blocked and the pool can never leak a slot.
	defer func() {
		c.pool.release()
		if f.err != nil {
			c.forget(key)
		}
		close(f.done)
	}()
	f.err = c.pool.call(ctx, timeout, func(ctx context.Context) error {
		val, err := fn(ctx)
		if err == nil {
			f.val = val
		}
		return err
	})
	return f.val, true, f.err
}

// DoAll runs fn(ctx, i) for every keys[i] through DoJob, all at once, and
// waits for every key to settle: a failure neither cancels nor skips the
// others. vals, ran and errs are in input order, as DoJob returns them. A
// key repeated in keys runs once, for its first index; later copies share
// its value and error with ran false, so which index ran is deterministic.
// Only the pool bounds how many fn run at once, so DoAll must not be
// called from inside a pool slot: with one slot it would wait forever for
// its own.
func (c *Cache[V]) DoAll(ctx context.Context, keys []string, timeout time.Duration, fn func(ctx context.Context, i int) (V, error)) (vals []V, ran []bool, errs []error) {
	n := len(keys)
	vals, ran, errs = make([]V, n), make([]bool, n), make([]error, n)
	first := make(map[string]int, n)
	var wg sync.WaitGroup
	for i, key := range keys {
		if _, dup := first[key]; dup {
			continue
		}
		first[key] = i
		wg.Add(1)
		go func() {
			defer wg.Done()
			vals[i], ran[i], errs[i] = c.DoJob(ctx, key, timeout, func(ctx context.Context) (V, error) {
				return fn(ctx, i)
			})
		}()
	}
	wg.Wait()
	for i, key := range keys {
		if f := first[key]; f != i {
			vals[i], errs[i] = vals[f], errs[f]
		}
	}
	return vals, ran, errs
}

// forget removes a failed flight so the next DoJob runs it again.
func (c *Cache[V]) forget(key string) {
	c.mu.Lock()
	delete(c.m, key)
	c.mu.Unlock()
}
