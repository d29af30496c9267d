package bigint

// NTT-based multiplication: the large-operand tier of the kernel ladder
// (schoolbook → Karatsuba → NTT; see ladder.go for the crossover points).
//
// The product is computed coefficient-exactly: both operands are read as
// polynomials in base 2^64 (one coefficient per limb), transformed modulo
// each of the three nttPrimes, multiplied pointwise, inverse-transformed,
// and the per-coefficient residues recombined with Garner's mixed-radix CRT
// into ≤192-bit convolution coefficients that are accumulated with carries
// into the destination. All scratch comes from the caller's limb arena, so
// the top-level natMul keeps its one-heap-allocation (the result) property;
// the parallel path's per-prime workers rent their own arenas from the same
// pool.

import (
	"math"
	"math/bits"
	"sync"

	"repro/internal/workpool"
)

// nttSize returns the transform length for a product of m limbs: the next
// power of two ≥ m (the linear convolution needs N ≥ m−1 slots; using m
// keeps the top coefficient's carry in-band).
func nttSize(m int) int {
	if m <= 2 {
		return 2
	}
	return 1 << bits.Len(uint(m-1))
}

// nttScratchFor returns the arena slab size that lets nttMulTo for an
// m-limb product run without heap fallback: three residue arrays plus one
// transform buffer, each of N limbs.
func nttScratchFor(m int) int {
	return 4*nttSize(m) + 16
}

// karaCostExp is the effective exponent of the Karatsuba tier's measured
// cost curve on the benchmark machine (theory says 1.585; caches push the
// observed doubling ratio to ≈2^1.7 across the sizes the NTT competes at).
// It shapes the crossover model below; the model's anchor point is the
// calibrated NTTLimbs.
const karaCostExp = 1.7

// nttEligible reports whether the NTT tier can and should handle an
// xLen×yLen-limb product. The gate has three parts:
//
//   - both operands at or above the ladder's NTT threshold t (ladder.go),
//     which is calibrated as the "tight" crossover: the balanced size at
//     which a zero-padding-free transform (N = 2t a power of two) ties the
//     Karatsuba tier;
//   - a padding-aware cost comparison anchored at that point. The transform
//     costs ∝ N·log₂N for the padded size N, while Karatsuba (chunked when
//     unbalanced) costs ∝ xLen·yLen^(karaCostExp−1); because N jumps by 2×
//     at power-of-two product sizes, the NTT's advantage is a stair — just
//     past a boundary Karatsuba wins again until operand growth refills the
//     transform — and a flat threshold would regress those shapes by ~50%;
//   - the transform within every prime's root-of-unity range (2^54 points —
//     unreachable for addressable operands, checked anyway so the kernel
//     never silently wraps).
func nttEligible(xLen, yLen int) bool {
	t := nttThresholdLimbs()
	if t <= 0 || xLen < t || yLen < t {
		return false
	}
	if xLen < yLen {
		xLen, yLen = yLen, xLen
	}
	n := nttSize(xLen + yLen)
	for i := range nttPrimes {
		if uint(bits.Len(uint(n))-1) > nttPrimes[i].s {
			return false
		}
	}
	// Equal cost at the anchor (xLen = yLen = t, N = 2t):
	// N·log₂N · t^e = 2t·log₂(2t) · t·t^(e−1).
	tf := float64(t)
	nttCost := float64(n) * math.Log2(float64(n)) * math.Pow(tf, karaCostExp)
	karaCost := 2 * tf * math.Log2(2*tf) * float64(xLen) * math.Pow(float64(yLen), karaCostExp-1)
	return nttCost < karaCost
}

// nttMulTo writes x·y into the zeroed destination z (len(z) ≥ len(x)+len(y))
// using the three-prime NTT with scratch from ar. When the shared worker
// pool has more than one slot the three primes' transforms run as pool
// tasks (each renting its own arena); butterfly stages additionally split
// long blocks across the pool inside each transform.
func nttMulTo(z, x, y nat, ar *arena) {
	m := len(x) + len(y)
	n := nttSize(m)

	mark := ar.mark()
	res0 := ar.alloc(n)
	res1 := ar.alloc(n)
	res2 := ar.alloc(n)
	res := [3]nat{res0, res1, res2}

	pool := nttPool
	if pool.Capacity() > 1 {
		t := nttProductTasks.Get().(*nttProductTask)
		*t = nttProductTask{res: res, x: x, y: y}
		pool.Run(t, len(nttPrimes))
		*t = nttProductTask{}
		nttProductTasks.Put(t)
	} else {
		work := ar.alloc(n)
		for i := range nttPrimes {
			nttProductInto(res[i], work, x, y, &nttPrimes[i], nil)
		}
	}

	nttCRTCombine(z[:m], res0, res1, res2)
	// Everything above came from the arena and is dead now; releasing lets
	// back-to-back calls (the chunked mulTo loop) reuse the same slab space.
	ar.release(mark)
}

// nttProductTask is the three primes' transforms as a pool batch: task i
// computes the product modulo nttPrimes[i] into res[i]. Batches are
// recycled through nttProductTasks, so the fan-out allocates nothing.
type nttProductTask struct {
	res  [3]nat
	x, y nat
}

var nttProductTasks = sync.Pool{New: func() any { return new(nttProductTask) }}

// Run is one prime's transform. It rents its own arena for the second
// transform buffer — the pooled slabs make the rental allocation-free in
// steady state — and forwards to nttProductInto with the pool enabled for
// intra-transform stage splitting.
func (t *nttProductTask) Run(i int) {
	dst := t.res[i]
	ar := getArena()
	ar.ensure(len(dst))
	work := ar.alloc(len(dst))
	nttProductInto(dst, work, t.x, t.y, &nttPrimes[i], nttPool)
	putArena(ar)
}

// nttProductInto computes the cyclic convolution of x and y modulo pr.p into
// dst (length N, the transform size): load+forward both operands, multiply
// pointwise with REDC, inverse-transform, and scale by N⁻¹·R (the R undoes
// REDC's R⁻¹). work is a second N-limb buffer; when x and y are the same
// slice (squaring) only one forward transform runs and work stays untouched.
// par, when non-nil, is the pool long butterfly blocks are split across.
func nttProductInto(dst, work nat, x, y nat, pr *nttPrime, par *workpool.Pool) {
	p, pInv := pr.p, pr.pInv
	nttLoad(dst, x, pr)
	pr.forward(dst, par)
	if !sameNat(x, y) {
		nttLoad(work, y, pr)
		pr.forward(work, par)
		for i, v := range work {
			dst[i] = redc(dst[i], v, p, pInv)
		}
	} else {
		for i, v := range dst {
			dst[i] = redc(v, v, p, pInv)
		}
	}
	pr.inverse(dst, par)

	// Scale by N⁻¹·R mod p and reduce strictly below p for the CRT.
	scale := mulMod(invMod(uint64(len(dst))%p, p), pr.r, p)
	scaleShoup := shoupOf(scale, p)
	for i, v := range dst {
		u := shoupMul(v, scale, scaleShoup, p)
		if u >= p {
			u -= p
		}
		dst[i] = u
	}
}

// nttLoad fills the N-limb transform buffer dst with x's limbs reduced into
// the lazy domain [0, 2p) and zero-pads the tail. A limb is below 2^64 < 8p,
// so two conditional subtracts reduce it.
func nttLoad(dst nat, x nat, pr *nttPrime) {
	twoP, fourP := pr.twoP, 4*pr.p
	for i, v := range x {
		if v >= fourP {
			v -= fourP
		}
		if v >= twoP {
			v -= twoP
		}
		dst[i] = v
	}
	clear(dst[len(x):])
}

// sameNat reports whether x and y are the same limb slice (the squaring
// fast path: Int values are immutable, so Mul(x, x) sees one backing array).
func sameNat(x, y nat) bool {
	return len(x) == len(y) && len(x) > 0 && &x[0] == &y[0]
}

// nttCRTCombine recombines the three residue arrays into the product: for
// each coefficient index Garner's mixed-radix reconstruction produces the
// exact ≤192-bit convolution coefficient
//
//	c = r1 + p1·t2 + p1·p2·t3 < p1·p2·p3,
//
// which is added into z at its limb position with carry propagation. z must
// be zeroed on entry and long enough for the full product (the top
// coefficient's carries stay in-band by construction).
func nttCRTCombine(z nat, res1, res2, res3 nat) {
	p1 := nttPrimes[0].p
	p2 := nttPrimes[1].p
	p3 := nttPrimes[2].p
	c := &nttCRT
	m := len(z)
	// The linear convolution has m−1 coefficients (indices 0..m−2); the
	// transform's tail entries beyond that are zero by construction.
	for i := 0; i < m-1 && i < len(res1); i++ {
		r1, r2, r3 := res1[i], res2[i], res3[i]

		// t2 = (r2 − r1)·p1⁻¹ mod p2. r1 < p1 < 2p2, one conditional subtract
		// brings it below p2.
		r1m2 := r1
		if r1m2 >= p2 {
			r1m2 -= p2
		}
		d2 := r2 + p2 - r1m2
		if d2 >= p2 {
			d2 -= p2
		}
		t2 := shoupMul(d2, c.inv12, c.inv12Shoup, p2)
		if t2 >= p2 {
			t2 -= p2
		}

		// t3 = (r3 − (r1 + p1·t2))·(p1·p2)⁻¹ mod p3.
		r1m3 := r1
		if r1m3 >= p3 {
			r1m3 -= p3
		}
		u := shoupMul(t2, c.p1mod3, c.p1mod3Shoup, p3) // p1·t2 mod p3, in [0, 2p3)
		u += r1m3
		for u >= p3 {
			u -= p3
		}
		d3 := r3 + p3 - u
		if d3 >= p3 {
			d3 -= p3
		}
		t3 := shoupMul(d3, c.inv123, c.inv123Shoup, p3)
		if t3 >= p3 {
			t3 -= p3
		}

		// c = r1 + p1·t2 + (p1·p2)·t3 as a 192-bit value (w2 w1 w0).
		hi1, lo1 := bits.Mul64(p1, t2)
		w0, carry := bits.Add64(r1, lo1, 0)
		w1 := hi1 + carry // < 2^64: hi1 ≤ p1−1 with room for the carry

		hiL, loL := bits.Mul64(c.p12lo, t3)
		hiH, loH := bits.Mul64(c.p12hi, t3)
		w0, carry = bits.Add64(w0, loL, 0)
		w1, carry = bits.Add64(w1, hiL, carry)
		w2 := hiH + carry
		w1, carry = bits.Add64(w1, loH, 0)
		w2 += carry

		// z[i..] += (w2 w1 w0) with carry ripple. The top coefficient (i =
		// m−2) is a single limb product whose w2 and final carry are zero,
		// so the in-range guards never drop information.
		var cc uint64
		z[i], cc = bits.Add64(z[i], w0, 0)
		z[i+1], cc = bits.Add64(z[i+1], w1, cc)
		if i+2 < m {
			z[i+2], cc = bits.Add64(z[i+2], w2, cc)
			for j := i + 3; cc != 0 && j < m; j++ {
				z[j], cc = bits.Add64(z[j], cc, 0)
			}
		}
	}
}
