package server

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ptmc/internal/sim"
)

func qjob(id, tenant, priority string) *job {
	return newJob(id, JobSpec{Spec: sim.Spec{Workload: "lbm06"}, Schemes: []string{"ptmc"},
		Tenant: tenant, Priority: priority})
}

// drainQueue pops everything currently ready without blocking.
func drainQueue(q *Queue) []*job {
	var out []*job
	for {
		q.mu.Lock()
		j := q.popLocked()
		if j != nil {
			q.queued--
		}
		q.mu.Unlock()
		if j == nil {
			return out
		}
		out = append(out, j)
	}
}

func TestQueuePriorityOrder(t *testing.T) {
	q := NewQueue(16, 0)
	// Enqueue lowest class first so FIFO alone would invert priority.
	for i := 0; i < 2; i++ {
		q.EnqueueReplayed(qjob(fmt.Sprintf("s%d", i), "t", PrioritySweepChild))
	}
	for i := 0; i < 2; i++ {
		q.EnqueueReplayed(qjob(fmt.Sprintf("b%d", i), "t", PriorityBatch))
	}
	for i := 0; i < 2; i++ {
		q.EnqueueReplayed(qjob(fmt.Sprintf("i%d", i), "t", PriorityInteractive))
	}
	var got []string
	for _, j := range drainQueue(q) {
		got = append(got, j.id)
	}
	// Strict priority with FIFO within class — except the agingEvery-th
	// dequeue (index 3 here), which serves the globally oldest (s0).
	want := []string{"i0", "i1", "b0", "s0", "b1", "s1"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("dequeue order %v, want %v", got, want)
	}
}

func TestQueueAgingPreventsStarvation(t *testing.T) {
	q := NewQueue(1024, 0)
	q.EnqueueReplayed(qjob("victim", "t", PrioritySweepChild))
	// A steady interactive stream: feed one new interactive job per
	// dequeue. Without aging the sweep child would never be served.
	served := -1
	for i := 0; i < 4*agingEvery; i++ {
		q.EnqueueReplayed(qjob(fmt.Sprintf("i%d", i), "t", PriorityInteractive))
		q.mu.Lock()
		j := q.popLocked()
		q.queued--
		q.mu.Unlock()
		if j.id == "victim" {
			served = i
			break
		}
	}
	if served < 0 {
		t.Fatalf("sweep-child job starved through %d dequeues under interactive load", 4*agingEvery)
	}
}

func TestQueueReplayedKeepsClass(t *testing.T) {
	q := NewQueue(16, 0)
	// A replayed job's class comes from its persisted spec, not from how it
	// entered the queue.
	q.EnqueueReplayed(qjob("batch", "t", PriorityBatch))
	q.EnqueueReplayed(qjob("inter", "t", PriorityInteractive))
	jobs := drainQueue(q)
	if jobs[0].id != "inter" {
		t.Fatalf("replayed interactive job not served first: got %s", jobs[0].id)
	}
}

func TestQueueDequeueBlocksAndWakes(t *testing.T) {
	q := NewQueue(4, 0)
	got := make(chan *job, 1)
	go func() {
		j, ok := q.Dequeue(func() bool { return false })
		if !ok {
			t.Error("Dequeue returned !ok without stop")
		}
		got <- j
	}()
	time.Sleep(5 * time.Millisecond) // let it block
	if err := q.Reserve("t"); err != nil {
		t.Fatal(err)
	}
	q.Commit(qjob("j1", "t", PriorityBatch))
	select {
	case j := <-got:
		if j.id != "j1" {
			t.Fatalf("dequeued %s", j.id)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Dequeue never woke for a committed job")
	}

	// Stop predicate: a blocked Dequeue exits on Wake once stop is true.
	var stopped atomic.Bool
	exited := make(chan bool, 1)
	go func() {
		_, ok := q.Dequeue(func() bool { return stopped.Load() })
		exited <- ok
	}()
	time.Sleep(5 * time.Millisecond)
	stopped.Store(true)
	q.Wake()
	select {
	case ok := <-exited:
		if ok {
			t.Fatal("Dequeue returned ok=true after stop")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Dequeue never observed stop after Wake")
	}
}

// TestQueueAccountingInvariants hammers the full admission protocol from
// many goroutines under -race: Reserve/Abort, Reserve/Commit/Dequeue/
// Release, and cap-bypassing EnqueueReplayed/Dequeue/Release. Invariants:
// counts never go negative, Depth never exceeds capacity + replayed
// in-flight, Commit never blocks, and the books balance exactly when the
// dust settles.
func TestQueueAccountingInvariants(t *testing.T) {
	const (
		goroutines = 8
		iterations = 300
		capacity   = 16
		perTenant  = 6
	)
	q := NewQueue(capacity, perTenant)
	tenants := []string{"a", "b", "c"}

	var handedOut atomic.Int64 // dequeued jobs awaiting Release
	var wg sync.WaitGroup
	stopWorkers := make(chan struct{})
	var workerWG sync.WaitGroup
	// Consumers: dequeue and release, like the server's workers.
	for w := 0; w < 3; w++ {
		workerWG.Add(1)
		go func() {
			defer workerWG.Done()
			stop := func() bool {
				select {
				case <-stopWorkers:
					return true
				default:
					return false
				}
			}
			for {
				j, ok := q.Dequeue(stop)
				if !ok {
					return
				}
				handedOut.Add(1)
				q.Release(j.spec.Tenant)
				handedOut.Add(-1)
			}
		}()
	}
	// Producers: mixed admission paths.
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < iterations; i++ {
				tenant := tenants[rng.Intn(len(tenants))]
				prio := []string{PriorityInteractive, PriorityBatch, PrioritySweepChild}[rng.Intn(3)]
				id := fmt.Sprintf("g%d-i%d", g, i)
				switch rng.Intn(4) {
				case 0: // reserve then abort (failed durable accept)
					if q.Reserve(tenant) == nil {
						q.Abort(tenant)
					}
				case 1, 2: // reserve then commit (normal admission)
					if q.Reserve(tenant) == nil {
						done := make(chan struct{})
						go func() { // Commit must never block
							q.Commit(qjob(id, tenant, prio))
							close(done)
						}()
						select {
						case <-done:
						case <-time.After(5 * time.Second):
							t.Error("Commit blocked")
							return
						}
					}
				case 3: // replayed admission bypasses the caps
					q.EnqueueReplayed(qjob(id, tenant, prio))
				}
				if d := q.Depth(); d < 0 {
					t.Errorf("Depth went negative: %d", d)
					return
				}
				for _, n := range q.Tenants() {
					if n < 0 {
						t.Errorf("tenant count negative: %d", n)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	// Drain what's left, then stop the consumers.
	deadline := time.Now().Add(10 * time.Second)
	for q.Depth() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("queue never drained: depth %d", q.Depth())
		}
		time.Sleep(time.Millisecond)
	}
	close(stopWorkers)
	q.Wake()
	workerWG.Wait()

	if d := q.Depth(); d != 0 {
		t.Fatalf("final depth %d, want 0", d)
	}
	if n := handedOut.Load(); n != 0 {
		t.Fatalf("%d jobs handed out and never released", n)
	}
	// Every committed/replayed job was released: counts empty.
	if tens := q.Tenants(); len(tens) != 0 {
		t.Fatalf("leaked tenant counts: %v", tens)
	}
}

// TestQueueReplayedHeadroom: replayed jobs may exceed capacity (durable
// work is not rejectable) but still count toward Depth and tenant load so
// new Reserves see the truth.
func TestQueueReplayedHeadroom(t *testing.T) {
	q := NewQueue(2, 0)
	for i := 0; i < 5; i++ {
		q.EnqueueReplayed(qjob(fmt.Sprintf("r%d", i), "t", PriorityBatch))
	}
	if d := q.Depth(); d != 5 {
		t.Fatalf("depth %d, want 5 (replayed jobs bypass the cap)", d)
	}
	// New admissions are rejected: the replayed load occupies the queue.
	if err := q.Reserve("x"); err == nil {
		t.Fatal("Reserve succeeded over a full (replayed) queue")
	}
}
