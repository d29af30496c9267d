package toom

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/bigint"
)

// startProcs is GOMAXPROCS at process start, which sizes the shared pool;
// go test -cpu changes GOMAXPROCS only later, per run.
var startProcs = max(runtime.GOMAXPROCS(0), 1)

// TestMulConcurrentPoolBounded is the acceptance test for the bounded
// worker pool: a depth-2 MulConcurrent fan-out (which in the seed spawned
// (2k-1)² goroutines) must run on a pool of GOMAXPROCS-at-process-start
// workers, never more handed-off tasks at once than that, and must still
// compute the exact product. The pool is not resized when GOMAXPROCS
// changes later (go test -cpu), and with its fixed worker set the peak
// check cannot fail; it guards against a return to per-task goroutines.
func TestMulConcurrentPoolBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, k := range []int{2, 3} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			alg := MustNew(k)
			a := bigint.Random(rng, 1<<14)
			b := bigint.Random(rng, 1<<14)
			leafPool.ResetStats()
			got := alg.MulConcurrent(a, b, 2)
			if want := alg.Mul(a, b); !got.Equal(want) {
				t.Fatalf("MulConcurrent(depth=2) product mismatch")
			}
			capacity, peak, spawned, inline := PoolStats()
			if capacity != startProcs {
				t.Fatalf("pool capacity %d, want GOMAXPROCS at start = %d", capacity, startProcs)
			}
			if peak > int64(capacity) {
				t.Fatalf("pool peak %d exceeds capacity %d: unbounded fan-out", peak, capacity)
			}
			// The depth-2 tree exposes (2k-1)+(2k-1)² tasks; everything the
			// pool declined must have run inline rather than been dropped.
			tasks := int64((2*k - 1) + (2*k-1)*(2*k-1))
			if spawned+inline != tasks {
				t.Fatalf("spawned(%d)+inline(%d) != submitted tasks(%d)", spawned, inline, tasks)
			}
		})
	}
}

// TestMulConcurrentSharedPoolRace is the race-detector smoke test for the
// pool (run via `go test -race`, wired into the Makefile's race target):
// several goroutines hammer the shared pool with depth-2 multiplies for
// k=2 and k=3 simultaneously, all drawing from the same workers (as many
// as GOMAXPROCS at process start).
func TestMulConcurrentSharedPoolRace(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	type job struct {
		alg  *Algorithm
		a, b bigint.Int
		want bigint.Int
	}
	var jobs []job
	for _, k := range []int{2, 3} {
		alg := MustNew(k)
		a := bigint.Random(rng, 1<<13)
		b := bigint.Random(rng, 1<<13)
		jobs = append(jobs, job{alg, a, b, alg.Mul(a, b)})
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 4; w++ {
		for _, j := range jobs {
			wg.Add(1)
			j := j
			go func() {
				defer wg.Done()
				if got := j.alg.MulConcurrent(j.a, j.b, 2); !got.Equal(j.want) {
					errs <- fmt.Errorf("concurrent product mismatch (k=%d)", j.alg.K())
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if _, peak, _, _ := PoolStats(); peak > int64(startProcs) {
		t.Fatalf("pool peak %d exceeded GOMAXPROCS at start (%d) under contention", peak, startProcs)
	}
}
