package bigint

import (
	"fmt"
	"sync"
)

// Acc is a reusable signed accumulator for the hot combination loops of the
// Toom-Cook stack (evaluation, interpolation, recomposition). Where the
// immutable Int API allocates a fresh value per operation, an Acc mutates a
// private limb buffer in place and hands the finished value off with Take,
// so an entire scalar-by-big matrix row costs O(1) heap allocations.
//
// The zero value is ready to use; NewAcc/Release additionally recycle the
// internal buffers through a sync.Pool. An Acc is not safe for concurrent
// use. Ints passed in are only read; Ints returned by Take are freshly
// owned and never aliased by later Acc operations.
type Acc struct {
	neg bool
	abs nat // canonical magnitude, owned by the Acc until Take
	tmp nat // scratch for word products, never escapes
}

var accPool = sync.Pool{New: func() any { return new(Acc) }}

// NewAcc returns a zeroed accumulator from the pool.
func NewAcc() *Acc { return accPool.Get().(*Acc) }

// Release resets a and returns it to the pool, keeping its buffers for the
// next user. The caller must not use a afterwards.
func (a *Acc) Release() {
	a.Reset()
	accPool.Put(a)
}

// Reset sets a to zero, retaining capacity.
func (a *Acc) Reset() {
	a.neg = false
	a.abs = a.abs[:0]
}

// IsZero reports whether the accumulated value is zero.
func (a *Acc) IsZero() bool { return len(a.abs) == 0 }

// WordLen returns the number of limbs in |a| (0 for zero) — the same size
// measure as Int.WordLen, used by the cost model's F accounting.
func (a *Acc) WordLen() int { return len(a.abs) }

// add combines a signed magnitude into the accumulator in place.
func (a *Acc) add(x nat, xneg bool) {
	if len(x) == 0 {
		return
	}
	if len(a.abs) == 0 {
		a.abs = natSet(a.abs, x)
		a.neg = xneg
		return
	}
	if a.neg == xneg {
		a.abs = natAddTo(a.abs, a.abs, x)
		return
	}
	switch natCmp(a.abs, x) {
	case 0:
		a.neg = false
		a.abs = a.abs[:0]
	case 1:
		a.abs = natSubTo(a.abs, a.abs, x)
	default:
		a.abs = natSubTo(a.abs, x, a.abs)
		a.neg = xneg
	}
}

// Add accumulates a += x.
func (a *Acc) Add(x Int) { a.add(x.abs, x.neg) }

// Sub accumulates a -= x.
func (a *Acc) Sub(x Int) { a.add(x.abs, !x.neg) }

// AddMul accumulates a += x·c for a small signed scalar c — the single
// operation evaluation and interpolation matrices are made of. The word
// product lands in internal scratch; no Int is materialized.
func (a *Acc) AddMul(x Int, c int64) {
	if c == 0 || len(x.abs) == 0 {
		return
	}
	neg := x.neg
	var u uint64
	if c < 0 {
		neg = !neg
		u = uint64(-(c + 1)) + 1
	} else {
		u = uint64(c)
	}
	if u == 1 {
		a.add(x.abs, neg)
		return
	}
	a.tmp = natMulWordTo(a.tmp, x.abs, u)
	a.add(a.tmp, neg)
}

// Shl shifts the accumulator left by s bits in place.
func (a *Acc) Shl(s uint) {
	a.abs = natShlTo(a.abs, a.abs, s)
}

// DivExact divides the accumulator by v in place, panicking unless the
// division is exact (mirroring Int.DivExactInt64: interpolation divides by
// constants that provably divide, so a remainder is a logic error).
func (a *Acc) DivExact(v int64) {
	if !a.DivIfExact(v) {
		panic(fmt.Sprintf("bigint: Acc.DivExact: value not divisible by %d", v))
	}
}

// DivIfExact divides the accumulator by v in place and reports whether the
// division was exact. After a false result the accumulator holds an
// unspecified value and must be Reset. Decoders use it on data that may be
// corrupted, where an inexact quotient is a finding rather than a logic
// error.
func (a *Acc) DivIfExact(v int64) bool {
	if v == 0 {
		panic("bigint: Acc.DivExact by zero")
	}
	if len(a.abs) == 0 {
		return true
	}
	var u uint64
	if v < 0 {
		a.neg = !a.neg
		u = uint64(-(v + 1)) + 1
	} else {
		u = uint64(v)
	}
	q, r := natDivWordTo(a.abs, a.abs, u)
	a.abs = q
	if len(q) == 0 {
		a.neg = false
	}
	return r == 0
}

// Take returns the accumulated value as an immutable Int and resets the
// accumulator. Ownership of the limb buffer transfers to the returned Int
// (no copy); the Acc starts its next accumulation with a fresh buffer.
func (a *Acc) Take() Int {
	z := a.abs
	a.abs = nil
	if len(z) == 0 {
		a.neg = false
		return Int{}
	}
	out := Int{neg: a.neg, abs: z}
	a.neg = false
	return out
}

// Value returns the accumulated value as an Int without disturbing the
// accumulator (the limbs are copied).
func (a *Acc) Value() Int {
	if len(a.abs) == 0 {
		return Int{}
	}
	z := make(nat, len(a.abs))
	copy(z, a.abs)
	return Int{neg: a.neg, abs: z}
}
