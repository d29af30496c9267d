// Package rat implements exact rational arithmetic over the repository's
// own big integers (internal/bigint).
//
// Rationals appear in three places in the reproduction: inverting Toom-Cook
// interpolation matrices (whose inverses have entries like 1/6), decoding
// the systematic Vandermonde erasure code (solving a small linear system
// whose solution must be recovered exactly), and validating evaluation-point
// sets ((r,l)-general position is a statement about exact determinants).
// Floating point is never acceptable for any of these, so everything here is
// exact.
package rat

import (
	"fmt"

	"repro/internal/bigint"
)

// Rat is an exact rational number p/q with q > 0 and gcd(p, q) = 1.
// The zero value is 0/1 and ready to use. Rats are immutable.
type Rat struct {
	p bigint.Int // numerator, carries the sign
	q bigint.Int // denominator, always positive; zero value means 1
}

// denom returns the denominator, mapping the zero value's implicit 1.
func (x Rat) denom() bigint.Int {
	if x.q.IsZero() {
		return bigint.One()
	}
	return x.q
}

// FromInt returns the rational v/1.
func FromInt(v bigint.Int) Rat { return Rat{p: v, q: bigint.One()} }

// FromInt64 returns the rational v/1.
func FromInt64(v int64) Rat { return FromInt(bigint.FromInt64(v)) }

// New returns the rational p/q in lowest terms. It panics if q is zero.
func New(p, q bigint.Int) Rat {
	if q.IsZero() {
		panic("rat: zero denominator")
	}
	if q.Sign() < 0 {
		p, q = p.Neg(), q.Neg()
	}
	g := gcd(p.Abs(), q)
	if !g.Equal(bigint.One()) {
		p = divExact(p, g)
		q = divExact(q, g)
	}
	return Rat{p: p, q: q}
}

// NewInt64 returns the rational p/q for small operands.
func NewInt64(p, q int64) Rat { return New(bigint.FromInt64(p), bigint.FromInt64(q)) }

// Num returns the numerator (carrying the sign).
func (x Rat) Num() bigint.Int { return x.p }

// Den returns the (positive) denominator.
func (x Rat) Den() bigint.Int { return x.denom() }

// Zero returns 0.
func Zero() Rat { return Rat{} }

// One returns 1.
func One() Rat { return FromInt64(1) }

// IsZero reports whether x == 0.
func (x Rat) IsZero() bool { return x.p.IsZero() }

// IsInt reports whether x is an integer.
func (x Rat) IsInt() bool { return x.denom().Equal(bigint.One()) }

// Int returns the integer value of x; it panics if x is not an integer.
// Use it where exactness is an invariant (e.g. erasure decoding must yield
// integers), so that a violation is detected rather than silently rounded.
func (x Rat) Int() bigint.Int {
	if !x.IsInt() {
		panic(fmt.Sprintf("rat: %v is not an integer", x))
	}
	return x.p
}

// Sign returns -1, 0, or +1.
func (x Rat) Sign() int { return x.p.Sign() }

// Neg returns -x.
func (x Rat) Neg() Rat { return Rat{p: x.p.Neg(), q: x.q} }

// Add returns x + y.
func (x Rat) Add(y Rat) Rat {
	xq, yq := x.denom(), y.denom()
	return New(x.p.Mul(yq).Add(y.p.Mul(xq)), xq.Mul(yq))
}

// Sub returns x - y.
func (x Rat) Sub(y Rat) Rat { return x.Add(y.Neg()) }

// Mul returns x * y.
func (x Rat) Mul(y Rat) Rat {
	return New(x.p.Mul(y.p), x.denom().Mul(y.denom()))
}

// Inv returns 1/x; it panics if x is zero.
func (x Rat) Inv() Rat {
	if x.IsZero() {
		panic("rat: inverse of zero")
	}
	return New(x.denom(), x.p)
}

// Div returns x / y; it panics if y is zero.
func (x Rat) Div(y Rat) Rat { return x.Mul(y.Inv()) }

// Cmp compares x and y: -1 if x<y, 0 if equal, +1 if x>y.
func (x Rat) Cmp(y Rat) int {
	// Cross-multiply; denominators are positive.
	return x.p.Mul(y.denom()).Cmp(y.p.Mul(x.denom()))
}

// Equal reports whether x == y.
func (x Rat) Equal(y Rat) bool { return x.Cmp(y) == 0 }

// Pow returns x^n for n >= 0 (x^0 = 1, including 0^0 = 1, the convention
// used by homogeneous evaluation points where h^0 appears with h = 0).
func (x Rat) Pow(n int) Rat {
	if n < 0 {
		panic("rat: negative exponent")
	}
	result := One()
	base := x
	for n > 0 {
		if n&1 == 1 {
			result = result.Mul(base)
		}
		base = base.Mul(base)
		n >>= 1
	}
	return result
}

// String formats x as "p/q", or "p" when integral.
func (x Rat) String() string {
	if x.IsInt() {
		return x.p.String()
	}
	return x.p.String() + "/" + x.q.String()
}

// gcd returns gcd(|a|, |b|) with gcd(0, b) = |b|.
func gcd(a, b bigint.Int) bigint.Int {
	a, b = a.Abs(), b.Abs()
	for !b.IsZero() {
		a, b = b, mod(a, b)
	}
	return a
}

// mod returns a mod b for positive b via repeated shift-subtract
// (binary long division on magnitudes).
func mod(a, b bigint.Int) bigint.Int {
	if a.Cmp(b) < 0 {
		return a
	}
	r := a
	for r.Cmp(b) >= 0 {
		shift := uint(r.BitLen() - b.BitLen())
		t := b.Shl(shift)
		if t.Cmp(r) > 0 {
			t = b.Shl(shift - 1)
		}
		r = r.Sub(t)
	}
	return r
}

// divExact returns a/b for b exactly dividing a (magnitude long division).
func divExact(a, b bigint.Int) bigint.Int {
	if b.IsZero() {
		panic("rat: divExact by zero")
	}
	neg := a.Sign()*b.Sign() < 0
	a, b = a.Abs(), b.Abs()
	if v, ok := b.Int64(); ok {
		q := a.DivExactInt64(v)
		if neg {
			q = q.Neg()
		}
		return q
	}
	// Binary long division.
	q := bigint.Zero()
	r := a
	for r.Cmp(b) >= 0 {
		shift := uint(r.BitLen() - b.BitLen())
		t := b.Shl(shift)
		if t.Cmp(r) > 0 {
			shift--
			t = b.Shl(shift)
		}
		r = r.Sub(t)
		q = q.Add(bigint.One().Shl(shift))
	}
	if !r.IsZero() {
		panic("rat: divExact not exact")
	}
	if neg {
		q = q.Neg()
	}
	return q
}
