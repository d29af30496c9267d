package bigint

import "sync"

// arena is a bump allocator for limb scratch. The kernel ladder (Karatsuba,
// NTT) and the counted Toom recursion (toom.go) draw their temporaries from
// an arena instead of the heap, so a multiplication performs O(1) heap
// allocations regardless of recursion depth: one slab is rented from a sync.Pool per top-level call,
// carved up with mark/release discipline, and returned when done.
//
// The counted Toom recursion also draws each node's signed-magnitude
// headers (digits, evaluations, products) from the arena's header stack,
// under the same mark/release, instead of zeroing fixed-size arrays on
// every node's stack frame.
//
// An arena is not safe for concurrent use; rent one per goroutine with
// getArena and return it with putArena.
type arena struct {
	buf  []uint64
	off  int
	hdr  []snat // header stack
	hoff int
	hmax int // high-water mark of hoff since the arena was rented
}

// arenaMark is a point in an arena's allocation history: the offsets of
// both the limb slab and the header stack.
type arenaMark struct{ limbs, headers int }

// mark returns the current allocation offsets; release(mark()) frees every
// allocation made in between (sibling recursion branches reuse the space).
func (a *arena) mark() arenaMark { return arenaMark{a.off, a.hoff} }

// release rewinds the arena to a previous mark.
func (a *arena) release(m arenaMark) { a.off, a.hoff = m.limbs, m.headers }

// alloc returns a zeroed length-n limb slice. When the slab is exhausted it
// falls back to the heap — correctness never depends on ensure's sizing.
func (a *arena) alloc(n int) nat {
	if a.off+n > len(a.buf) {
		return make(nat, n)
	}
	z := a.buf[a.off : a.off+n]
	a.off += n
	clear(z)
	return z
}

// reserve returns an empty limb slice with capacity n and unspecified
// contents beyond its length, for in-place kernels that write every limb
// before reading it (the counted Toom recursion's signed nats). Skipping
// alloc's clear matters there: a node reserves headroom it rarely fills.
// Like alloc it falls back to the heap when the slab is exhausted.
func (a *arena) reserve(n int) nat {
	if a.off+n > len(a.buf) {
		return make(nat, 0, n)
	}
	z := a.buf[a.off : a.off : a.off+n]
	a.off += n
	return z
}

// ensure grows the slab to at least n limbs. It must only be called while
// the arena is empty (no outstanding allocations), since growth replaces the
// backing array — live allocations would silently keep pointing at the old
// slab while new ones come from the new slab. Misuse panics instead of
// no-op'ing: the ftlint arenasafe analyzer enforces the call order
// statically, and this check backs it at run time.
func (a *arena) ensure(n int) {
	if a.off != 0 {
		panic("bigint: arena.ensure called with outstanding allocations (ensure must precede all alloc calls)")
	}
	if len(a.buf) < n {
		a.buf = make([]uint64, n)
	}
}

// headers returns n snat headers from the header stack, with unspecified
// contents: the caller sets every header before reading it. An exhausted
// stack is replaced by a larger one; unlike the limb slab this is safe at
// any time, because headers handed out earlier keep the old backing array
// and nothing relies on the stack being contiguous.
func (a *arena) headers(n int) []snat {
	if a.hoff+n > len(a.hdr) {
		a.hdr = make([]snat, max(2*(a.hoff+n), minHeaders))
	}
	h := a.hdr[a.hoff : a.hoff+n : a.hoff+n]
	a.hoff += n
	a.hmax = max(a.hmax, a.hoff)
	return h
}

// ensureHeaders grows the header stack to at least n headers, so a
// recursion sized up front never takes the growth path in headers.
func (a *arena) ensureHeaders(n int) {
	if len(a.hdr) < n {
		a.hdr = make([]snat, max(n, minHeaders))
	}
}

// minHeaders is the smallest header stack an arena grows to (8 KiB): room
// for 23 Toom-2 levels (a 2^18-bit product takes 10) or 10 Toom-4 levels,
// so a pooled arena grows its stack once, on its first Toom recursion, not
// again for a deeper one.
const minHeaders = 256

var arenaPool = sync.Pool{New: func() any { return new(arena) }}

func getArena() *arena { return arenaPool.Get().(*arena) }

func putArena(a *arena) {
	clear(a.hdr[:a.hmax]) // drop stale headers' references to operands and results
	a.off, a.hoff, a.hmax = 0, 0, 0
	arenaPool.Put(a)
}
