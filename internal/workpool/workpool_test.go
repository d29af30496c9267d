package workpool

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// funcTasks adapts a function to Tasks for the tests.
type funcTasks func(i int)

func (f funcTasks) Run(i int) { f(i) }

// TestInlineFallback pins the no-deadlock property directly: a pool with a
// single worker receiving nested submissions must run the overflow inline
// and complete.
func TestInlineFallback(t *testing.T) {
	p := New(1)
	ran := make([]bool, 8)
	p.Run(funcTasks(func(i int) {
		sub := make([]bool, 4)
		p.Run(funcTasks(func(j int) { sub[j] = true }), len(sub))
		for j, ok := range sub {
			if !ok {
				t.Errorf("nested task %d/%d never ran", i, j)
			}
		}
		ran[i] = true
	}), len(ran))
	for i, ok := range ran {
		if !ok {
			t.Errorf("task %d never ran", i)
		}
	}
	if peak, _, _ := p.Stats(); peak > 1 {
		t.Fatalf("single-worker pool reached peak %d", peak)
	}
}

// startProcs is GOMAXPROCS at process start, which sizes the shared pool;
// go test -cpu changes GOMAXPROCS only later, per run.
var startProcs = max(runtime.GOMAXPROCS(0), 1)

// TestSharedCapacity pins the process-wide pool to GOMAXPROCS-at-start
// workers; a later GOMAXPROCS change (go test -cpu) does not resize it.
func TestSharedCapacity(t *testing.T) {
	if got := Shared().Capacity(); got != startProcs {
		t.Fatalf("Shared().Capacity() = %d, want GOMAXPROCS at start = %d", got, startProcs)
	}
}

// TestStatsAccounting checks that every submission lands in exactly one of
// handed or inline, that all tasks run, and that the peak never exceeds
// capacity.
func TestStatsAccounting(t *testing.T) {
	p := New(2)
	const tasks = 64
	var ran [tasks]bool
	p.Run(funcTasks(func(i int) { ran[i] = true }), tasks)
	for i, ok := range ran {
		if !ok {
			t.Fatalf("task %d never ran", i)
		}
	}
	peak, handed, inline := p.Stats()
	if handed+inline != tasks {
		t.Fatalf("handed(%d)+inline(%d) != %d submissions", handed, inline, tasks)
	}
	if peak > int64(p.Capacity()) {
		t.Fatalf("peak %d exceeds capacity %d", peak, p.Capacity())
	}
}

// TestConcurrentSubmitters runs batches from several goroutines at once,
// nested one level, so the race detector sees the handoff, the pooled batch
// state and the telemetry shared across submitters and workers.
func TestConcurrentSubmitters(t *testing.T) {
	p := New(3)
	const submitters, tasks, sub = 4, 16, 3
	var total atomic.Int64
	var wg sync.WaitGroup
	wg.Add(submitters)
	for range submitters {
		go func() {
			defer wg.Done()
			p.Run(funcTasks(func(int) {
				p.Run(funcTasks(func(int) { total.Add(1) }), sub)
			}), tasks)
		}()
	}
	wg.Wait()
	if got := total.Load(); got != submitters*tasks*sub {
		t.Fatalf("%d nested tasks ran, want %d", got, submitters*tasks*sub)
	}
	peak, handed, inline := p.Stats()
	if handed+inline != submitters*tasks*(1+sub) {
		t.Fatalf("handed(%d)+inline(%d) != %d submissions", handed, inline, submitters*tasks*(1+sub))
	}
	if peak > int64(p.Capacity()) {
		t.Fatalf("peak %d exceeds capacity %d", peak, p.Capacity())
	}
}

// countTasks is a reusable Tasks value: submitting it allocates nothing.
type countTasks struct{ n atomic.Int64 }

func (c *countTasks) Run(int) { c.n.Add(1) }

// TestRunAllocs pins the submission contract the NTT kernels rely on: with
// a reused Tasks value, a batch allocates nothing in steady state, whether
// its tasks go to workers or run inline (go test -cpu 1,4 covers both).
func TestRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled batches at random")
	}
	p := New(runtime.GOMAXPROCS(0))
	c := new(countTasks)
	p.Run(c, 8) // warm: launches the workers
	if got := testing.AllocsPerRun(50, func() { p.Run(c, 8) }); got != 0 {
		t.Errorf("Run allocates %.1f times per batch, want 0", got)
	}
	if got, want := c.n.Load(), int64(8*(1+1+50)); got != want {
		t.Errorf("%d tasks ran, want %d", got, want)
	}
}
