// Package workpool provides the bounded worker pool that all host-level
// parallelism in this repository routes through. It began life as
// internal/toom's pool (PR 1), bounding MulConcurrent's recursive fan-out;
// it is a package of its own so the bigint NTT kernels — which internal/toom
// itself depends on — can parallelize their butterfly stages through the
// same process-wide GOMAXPROCS slots without an import cycle and without
// spawning raw goroutines (the ftlint poolspawn analyzer enforces that
// statically for every governed package, this one included).
//
// A pool is a fixed set of long-lived workers, started on first use. A
// submitter hands each task of a batch (Tasks) to an idle worker and runs
// it inline when none is idle, so submission never blocks. That property
// is what makes the pool safe for *recursive* fan-out — a task that submits
// its own batch and then waits for it can never deadlock waiting for a
// worker it is itself occupying, the classic failure mode of a fixed worker
// set with a blocking queue and nested joins. The price is that a task may
// execute on its submitter's stack; the bound on live workers (and hence on
// CPU oversubscription) is exact either way.
//
// A handoff moves one (batch, index) pair over an unbuffered channel: no
// goroutine, closure or task is allocated per task. The batch's wait state
// is pooled, so a submitter whose Tasks value is itself reused (for
// instance drawn from a sync.Pool) submits without allocating.
package workpool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Tasks is a batch of independent tasks: Run(i) for i in [0, n), in any
// order and possibly concurrently. A Tasks value reaches the workers, so it
// escapes to the heap.
type Tasks interface {
	Run(i int)
}

// Pool runs batches of tasks on at most a fixed number of worker
// goroutines, running the overflow inline on the submitter.
type Pool struct {
	size  int
	jobs  chan job // unbuffered: a send succeeds only while a worker waits
	start sync.Once

	// Telemetry for the pool tests and the benchmark harness.
	active atomic.Int64 // workers currently running a task
	peak   atomic.Int64 // high-water mark of active
	handed atomic.Int64 // tasks handed to a worker
	inline atomic.Int64 // tasks that ran on the submitter (no worker idle)
}

// job is one task handoff: index i of batch b.
type job struct {
	b *batch
	i int
}

// batch is one Run call's state shared with the workers: its tasks and the
// count of handed-off tasks still running.
type batch struct {
	t  Tasks
	wg sync.WaitGroup
}

var batches = sync.Pool{New: func() any { return new(batch) }}

// New returns a pool of size workers (minimum 1). The workers start on the
// first Run and live as long as the process.
func New(size int) *Pool {
	if size < 1 {
		size = 1
	}
	return &Pool{size: size, jobs: make(chan job)}
}

// shared is the process-wide pool: every concurrent multiplication — Toom
// leaf fan-out and NTT butterfly stages alike — draws from the same
// GOMAXPROCS workers, so nested or simultaneous calls cannot oversubscribe
// the host.
var shared = New(runtime.GOMAXPROCS(0))

// Shared returns the process-wide GOMAXPROCS-sized pool.
func Shared() *Pool { return shared }

// launch starts the workers.
func (p *Pool) launch() {
	for range p.size {
		//ftlint:allow poolspawn this is the bounded pool's own worker launch; exactly size long-lived workers
		go p.work()
	}
}

// work runs handed-off tasks for the life of the process.
func (p *Pool) work() {
	for j := range p.jobs {
		n := p.active.Add(1)
		for {
			cur := p.peak.Load()
			if n <= cur || p.peak.CompareAndSwap(cur, n) {
				break
			}
		}
		j.b.t.Run(j.i)
		p.active.Add(-1)
		j.b.wg.Done() // last touch: the submitter may recycle b once all are done
	}
}

// Run runs t.Run(i) for every i in [0, n) and returns when all have
// finished. Each task goes to an idle worker when there is one and runs
// inline on the caller otherwise.
func (p *Pool) Run(t Tasks, n int) {
	p.start.Do(p.launch)
	b := batches.Get().(*batch)
	b.t = t
	for i := range n {
		b.wg.Add(1)
		select {
		case p.jobs <- job{b, i}:
			p.handed.Add(1)
		default:
			b.wg.Done()
			p.inline.Add(1)
			t.Run(i)
		}
	}
	b.wg.Wait()
	b.t = nil
	batches.Put(b)
}

// Capacity returns the worker count (the bound on concurrently running
// handed-off tasks).
func (p *Pool) Capacity() int { return p.size }

// Stats reports the pool's telemetry: the peak number of concurrently
// running workers, the tasks handed to a worker, and the tasks that ran
// inline on their submitter.
func (p *Pool) Stats() (peak, handed, inline int64) {
	return p.peak.Load(), p.handed.Load(), p.inline.Load()
}

// ResetStats zeroes the telemetry counters (test hook; racy against live
// tasks by design, so only call it while the pool is idle).
func (p *Pool) ResetStats() {
	p.active.Store(0)
	p.peak.Store(0)
	p.handed.Store(0)
	p.inline.Store(0)
}
