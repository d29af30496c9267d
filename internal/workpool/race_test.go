//go:build race

package workpool

// raceEnabled reports a -race build, whose sync.Pool drops a random share
// of Puts, so pooled batches are re-allocated from the heap.
const raceEnabled = true
