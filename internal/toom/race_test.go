//go:build race

package toom

// raceEnabled reports a -race build, whose sync.Pool drops a random share
// of Puts, so pooled arenas are re-rented from the heap.
const raceEnabled = true
