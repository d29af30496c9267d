package toom

import "repro/internal/workpool"

// leafPool is the process-wide bounded worker pool (internal/workpool) used
// by MulConcurrent. All concurrent multiplications — including the bigint
// NTT kernels' butterfly fan-out — draw from the same GOMAXPROCS slots, so
// nested or simultaneous calls cannot oversubscribe the host. The pool
// itself lived in this package through PR 5; it moved to internal/workpool
// so the kernel layer beneath us can share it without an import cycle.
var leafPool = workpool.Shared()

// PoolStats reports the shared worker pool's telemetry: the worker count,
// the peak number of concurrently running workers, the tasks handed to a
// worker, and how many tasks ran inline on their submitter. Exposed for
// tests and the benchmark harness.
func PoolStats() (capacity int, peak, handed, inline int64) {
	p := leafPool
	peak, handed, inline = p.Stats()
	return p.Capacity(), peak, handed, inline
}
