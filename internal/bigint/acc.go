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
	snat     // canonical signed magnitude, owned by the Acc until Take
	tmp  nat // scratch for word products, never escapes
}

// snat is a signed magnitude updated in place: the shared core of Acc and
// of the counted Toom kernel (toom.go), whose snats live in arena scratch
// with their capacity reserved up front. abs is canonical and neg is false
// for zero.
type snat struct {
	neg bool
	abs nat
}

// negate flips the sign of a nonzero value.
func (z *snat) negate() {
	if len(z.abs) > 0 {
		z.neg = !z.neg
	}
}

// add combines a signed magnitude into z in place.
func (z *snat) add(x nat, xneg bool) {
	if len(x) == 0 {
		return
	}
	if len(z.abs) == 0 {
		z.abs = natSet(z.abs, x)
		z.neg = xneg
		return
	}
	if z.neg == xneg {
		z.abs = natAddTo(z.abs, z.abs, x)
		return
	}
	switch natCmp(z.abs, x) {
	case 0:
		z.neg = false
		z.abs = z.abs[:0]
	case 1:
		z.abs = natSubTo(z.abs, z.abs, x)
	default:
		z.abs = natSubTo(z.abs, x, z.abs)
		z.neg = xneg
	}
}

// set2 sets z = x + y (signed by xneg and yneg) in one pass over z's
// storage, which may be x's or y's at offset 0.
func (z *snat) set2(x nat, xneg bool, y nat, yneg bool) {
	switch {
	case len(y) == 0:
		z.abs, z.neg = natSet(z.abs, x), xneg && len(x) > 0
	case len(x) == 0:
		z.abs, z.neg = natSet(z.abs, y), yneg
	case xneg == yneg:
		z.abs, z.neg = natAddTo(z.abs, x, y), xneg
	default:
		switch natCmp(x, y) {
		case 0:
			z.abs, z.neg = z.abs[:0], false
		case 1:
			z.abs, z.neg = natSubTo(z.abs, x, y), xneg
		default:
			z.abs, z.neg = natSubTo(z.abs, y, x), yneg
		}
	}
}

// addMul combines x·c (x signed by xneg) into z in place; the word product
// lands in *tmp, which must not alias z or x.
func (z *snat) addMul(x nat, xneg bool, c int64, tmp *nat) {
	if c == 0 || len(x) == 0 {
		return
	}
	u := absInt64(c)
	if c < 0 {
		xneg = !xneg
	}
	if u == 1 {
		z.add(x, xneg)
		return
	}
	*tmp = natMulWordTo(*tmp, x, u)
	z.add(*tmp, xneg)
}

// divIfExact divides z by v != 0 in place and reports whether the division
// was exact. Division by ±1 never touches the limbs.
func (z *snat) divIfExact(v int64) bool {
	if len(z.abs) == 0 {
		return true
	}
	if v < 0 {
		z.neg = !z.neg
	}
	u := absInt64(v)
	if u == 1 {
		return true
	}
	q, r := natDivWordTo(z.abs, z.abs, u)
	z.abs = q
	if len(q) == 0 {
		z.neg = false
	}
	return r == 0
}

// absInt64 returns |v| as a uint64 (exact at MinInt64).
func absInt64(v int64) uint64 {
	if v < 0 {
		return uint64(-(v + 1)) + 1
	}
	return uint64(v)
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

// Add accumulates a += x.
func (a *Acc) Add(x Int) { a.add(x.abs, x.neg) }

// Sub accumulates a -= x.
func (a *Acc) Sub(x Int) { a.add(x.abs, !x.neg) }

// AddMul accumulates a += x·c for a small signed scalar c — the single
// operation evaluation and interpolation matrices are made of. The word
// product lands in internal scratch; no Int is materialized.
func (a *Acc) AddMul(x Int, c int64) {
	a.addMul(x.abs, x.neg, c, &a.tmp)
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
// error. Dividing by 1 returns at once and by −1 only negates: Toom-2's
// interpolation denominator is 1, so its rows skip the division pass.
func (a *Acc) DivIfExact(v int64) bool {
	if v == 0 {
		panic("bigint: Acc.DivExact by zero")
	}
	return a.divIfExact(v)
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
