package bigint

import (
	"math/bits"
	"slices"
)

// Destination-reuse variants of the nat kernels. Each writes its result into
// dst's backing array when the capacity allows (allocating only on growth)
// and returns the canonical (normed) result slice. All of them tolerate dst
// aliasing an operand at offset 0 — the loops read and write the same index
// before moving on — which is what lets the Acc accumulator run fully in
// place. Results are always returned canonical; operands must be canonical
// where the contract below says so.

// natGrow returns a length-n slice over dst's backing array, replacing it
// with a fresh one (with ~25% headroom, so a sequence of accumulations does
// not reallocate on every one-limb carry growth) when the capacity is too
// small. The contents are unspecified; callers write every limb.
func natGrow(dst nat, n int) nat {
	if cap(dst) >= n {
		return dst[:n]
	}
	return make(nat, n, n+n/4+4)
}

// natSet copies x into dst's backing array, growing it as needed.
func natSet(dst, x nat) nat {
	dst = natGrow(dst, len(x))
	copy(dst, x)
	return dst
}

// natAddTo returns x+y written into dst. dst may alias x or y.
func natAddTo(dst, x, y nat) nat {
	if len(x) < len(y) {
		x, y = y, x
	}
	n := len(x) + 1
	z := natGrow(dst, n)
	var carry uint64
	zy, xy := z[:len(y)], x[:len(y)]
	for i, yi := range y {
		zy[i], carry = bits.Add64(xy[i], yi, carry)
	}
	for i := len(y); i < len(x); i++ {
		z[i], carry = bits.Add64(x[i], 0, carry)
	}
	z[len(x)] = carry
	return z.norm()
}

// natSubTo returns x-y written into dst for canonical x >= y >= 0. dst may
// alias x or y.
func natSubTo(dst, x, y nat) nat {
	z := natGrow(dst, len(x))
	var borrow uint64
	zy, xy := z[:len(y)], x[:len(y)]
	for i, yi := range y {
		zy[i], borrow = bits.Sub64(xy[i], yi, borrow)
	}
	for i := len(y); i < len(x); i++ {
		z[i], borrow = bits.Sub64(x[i], 0, borrow)
	}
	if borrow != 0 {
		panic("bigint: natSubTo underflow")
	}
	return z.norm()
}

// natMulWordTo returns x*w written into dst for w != 0. dst may alias x.
func natMulWordTo(dst, x nat, w uint64) nat {
	if len(x) == 0 {
		return dst[:0]
	}
	n := len(x) + 1
	z := natGrow(dst, n)
	var carry uint64
	for i, xi := range x {
		hi, lo := bits.Mul64(xi, w)
		var c uint64
		lo, c = bits.Add64(lo, carry, 0)
		z[i] = lo
		carry = hi + c
	}
	z[len(x)] = carry
	return z.norm()
}

// natMulWordLen returns len(x·w) for w >= 1 without forming the product.
// The lower limbs carry at most w−1 into the top one, so only a top limb
// whose product lands within w−1 of the word boundary needs that carry
// computed.
func natMulWordLen(x nat, w uint64) int {
	n := len(x)
	if n == 0 {
		return 0
	}
	hi, lo := bits.Mul64(x[n-1], w)
	if hi != 0 {
		return n + 1
	}
	if lo <= ^uint64(0)-(w-1) {
		return n
	}
	var carry uint64
	for _, xi := range x[:n-1] {
		h, l := bits.Mul64(xi, w)
		_, c := bits.Add64(l, carry, 0)
		carry = h + c
	}
	if _, c := bits.Add64(lo, carry, 0); c != 0 {
		return n + 1
	}
	return n
}

// natAddShiftedTo returns z + x·2^s written into z's backing array (z
// canonical; x must not overlap it). Only the limbs x·2^s covers and its
// carry are touched, so adding each Toom coefficient once at its offset
// costs its own length, not the length of the growing result. The array is
// replaced, contents kept, only when its capacity is too small.
func natAddShiftedTo(z, x nat, s uint) nat {
	if len(x) == 0 {
		return z
	}
	q, r := int(s/64), s%64
	end := q + len(x) // limbs x·2^s reaches, plus the bit shift's spill limb
	if r != 0 {
		end++
	}
	if n := len(z); end > n {
		z = slices.Grow(z, end-n)[:end]
		clear(z[n:])
	}
	zs := z[q : q+len(x)]
	var carry uint64
	if r == 0 {
		for j, xi := range x {
			zs[j], carry = bits.Add64(zs[j], xi, carry)
		}
	} else {
		l := (64 - r) & 63 // r in [1, 63]; the mask lets the shifts skip their ≥64 guard
		var prev uint64
		for j, xi := range x {
			zs[j], carry = bits.Add64(zs[j], xi<<r|prev>>l, carry)
			prev = xi
		}
		z[q+len(x)], carry = bits.Add64(z[q+len(x)], prev>>l, carry)
	}
	for i := end; carry != 0 && i < len(z); i++ {
		z[i], carry = bits.Add64(z[i], 0, carry)
	}
	if carry != 0 {
		z = append(z, carry)
	}
	return z.norm()
}

// natShlTo returns x<<s written into dst. dst may alias x: the limbs are
// produced top-down, so every read (indices i, i-1) happens at or below the
// write index and the aliased source is never clobbered early.
func natShlTo(dst, x nat, s uint) nat {
	if len(x) == 0 {
		return dst[:0]
	}
	if s == 0 {
		return natSet(dst, x)
	}
	limbs := int(s / 64)
	shift := s % 64
	n := len(x) + limbs + 1
	z := natGrow(dst, n) // on growth: fresh backing, aliased source stays readable
	if shift == 0 {
		z[n-1] = 0
		copy(z[limbs:n-1], x)
	} else {
		z[n-1] = x[len(x)-1] >> (64 - shift)
		for i := len(x) - 1; i > 0; i-- {
			z[limbs+i] = x[i]<<shift | x[i-1]>>(64-shift)
		}
		z[limbs] = x[0] << shift
	}
	clear(z[:limbs])
	return z.norm()
}

// natDivWordTo divides x by w in place (dst may alias x; same length) and
// returns the canonical quotient and the remainder.
func natDivWordTo(dst, x nat, w uint64) (nat, uint64) {
	if w == 0 {
		panic("bigint: division by zero word")
	}
	z := natGrow(dst, len(x))
	var r uint64
	for i := len(x) - 1; i >= 0; i-- {
		z[i], r = bits.Div64(r, x[i], w)
	}
	return z.norm(), r
}
