package bigint

// Number-theoretic transforms over three 62-bit primes — the top rung of the
// multiplication ladder (see nttmul.go for the multiplication built on them
// and ladder.go for the crossover thresholds).
//
// Each prime p = c·2^s + 1 has a large power of two dividing p−1, so the
// multiplicative group contains 2^m-th roots of unity for every transform
// size 2^m ≤ 2^s the ladder will ever see. The transforms are iterative
// radix-2 butterflies in the decimation style that needs no bit-reversal
// permutation: the forward pass (Cooley-Tukey shape, multiply-then-add/sub)
// leaves values in transposed order and the inverse pass (Gentleman-Sande
// shape, add/sub-then-multiply) consumes exactly that order, so
// forward+pointwise+inverse is a cyclic convolution with both passes walking
// memory sequentially.
//
// Twiddle factors are not tabulated: each stage walks its per-block twiddle
// `rot` by multiplying with one of ~s precomputed "rate" constants (the
// AtCoder-library scheme), so the whole precomputation per prime is a few
// dozen words computed once at package init — no per-size caches, no
// steady-state allocations, no synchronization.
//
// Arithmetic is lazy modular arithmetic in [0, 2p) (Harvey):
//
//   - twiddle multiplies use Shoup's trick — the per-block precomputed
//     ⌊rot·2^64/p⌋ turns x·rot mod p into two multiplies and one subtract,
//     with the result in [0, 2p) for any 64-bit x;
//   - the pointwise stage uses Montgomery REDC without ever entering the
//     Montgomery domain: REDC(a·b) = a·b·R⁻¹ mod p, and the stray R⁻¹ is
//     folded into the final N⁻¹ scaling constant;
//   - values leave a butterfly in [0, 2p) again, so no reduction passes are
//     needed between stages, and 4p < 2^64 keeps every intermediate in one
//     word.

import (
	"math/bits"
	"sync"

	"repro/internal/workpool"
)

// nttPrime is one CRT modulus with its precomputed transform constants. All
// fields are written once during package init and read-only afterwards, so a
// value is safe for concurrent use by parallel butterfly workers.
type nttPrime struct {
	p     uint64   // modulus, c·2^s + 1, p < 2^62
	twoP  uint64   // 2p, the lazy-domain bound
	g     uint64   // a primitive root mod p
	s     uint     // 2-adic valuation of p−1 (max log2 transform size)
	pInv  uint64   // −p⁻¹ mod 2^64 (Montgomery REDC constant)
	r     uint64   // 2^64 mod p (the Montgomery R)
	rate  []uint64 // forward twiddle-rotation constants (rate[i] advances rot at block 0b0…01…1 with i ones)
	irate []uint64 // inverse counterparts
}

// nttPrimes are the three CRT moduli. Their product is ≈2^184.3, so CRT
// recombination is exact while min(len(x), len(y))·(2^64−1)² stays below it —
// i.e. for operands up to 2^56 limbs, far beyond any addressable size. The
// smallest 2-adic valuation (54) likewise caps the transform at 2^54 points.
// Primality, root order, and valuation are pinned by TestNTTPrimeProperties.
var nttPrimes = [3]nttPrime{
	{p: 4179340454199820289, g: 3, s: 57}, // 29·2^57 + 1
	{p: 2936346957045563393, g: 3, s: 54}, // 163·2^54 + 1
	{p: 2485986994308513793, g: 5, s: 55}, // 69·2^55 + 1
}

// nttCRT holds the Garner mixed-radix recombination constants for the three
// primes, with Shoup precomputations for the fixed multipliers.
var nttCRT struct {
	inv12, inv12Shoup   uint64 // p1⁻¹ mod p2, and its Shoup constant
	p1mod3, p1mod3Shoup uint64 // p1 mod p3
	inv123, inv123Shoup uint64 // (p1·p2)⁻¹ mod p3
	p12hi, p12lo        uint64 // p1·p2 as a 128-bit value
}

// nttPool is the bounded worker pool the butterfly stages fan out on. It is
// a variable (not a call to workpool.Shared at each site) so tests can swap
// in a wider pool to exercise the parallel paths on any host.
var nttPool = workpool.Shared()

// nttPoolMu serializes tests that swap nttPool; the kernels only read it.
var nttPoolMu sync.Mutex

func init() {
	for i := range nttPrimes {
		nttPrimes[i].precompute()
	}
	p1, p2, p3 := nttPrimes[0].p, nttPrimes[1].p, nttPrimes[2].p
	nttCRT.inv12 = invMod(p1%p2, p2)
	nttCRT.inv12Shoup = shoupOf(nttCRT.inv12, p2)
	nttCRT.p1mod3 = p1 % p3
	nttCRT.p1mod3Shoup = shoupOf(nttCRT.p1mod3, p3)
	nttCRT.inv123 = invMod(mulMod(p1%p3, p2%p3, p3), p3)
	nttCRT.inv123Shoup = shoupOf(nttCRT.inv123, p3)
	nttCRT.p12hi, nttCRT.p12lo = bits.Mul64(p1, p2)
}

// precompute fills the derived constants of one prime.
func (pr *nttPrime) precompute() {
	p := pr.p
	pr.twoP = 2 * p
	pr.r = (0 - p) % p // 2^64 mod p

	// −p⁻¹ mod 2^64 by Newton iteration: each step doubles correct low bits.
	inv := p // p is odd, so p·p ≡ 1 mod 8 seeds 3 bits
	for i := 0; i < 5; i++ {
		inv *= 2 - p*inv
	}
	pr.pInv = 0 - inv

	// root[i] is a primitive 2^i-th root of unity; the rate arrays advance a
	// stage's block twiddle in O(1): walking blocks in order, the twiddle of
	// block s+1 is rot(s)·rate[ctz(^s)] (the AtCoder-library recurrence).
	root := make([]uint64, pr.s+1)
	iroot := make([]uint64, pr.s+1)
	root[pr.s] = powMod(pr.g, (p-1)>>pr.s, p)
	iroot[pr.s] = invMod(root[pr.s], p)
	for i := int(pr.s) - 1; i >= 0; i-- {
		root[i] = mulMod(root[i+1], root[i+1], p)
		iroot[i] = mulMod(iroot[i+1], iroot[i+1], p)
	}
	pr.rate = make([]uint64, pr.s-1)
	pr.irate = make([]uint64, pr.s-1)
	prod, iprod := uint64(1), uint64(1)
	for i := uint(0); i+2 <= pr.s; i++ {
		pr.rate[i] = mulMod(root[i+2], prod, p)
		pr.irate[i] = mulMod(iroot[i+2], iprod, p)
		prod = mulMod(prod, iroot[i+2], p)
		iprod = mulMod(iprod, root[i+2], p)
	}
}

// mulMod returns a·b mod p exactly (init and twiddle-walk path; the hot
// loops use shoupMul/redc instead of the hardware divide).
func mulMod(a, b, p uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	_, rem := bits.Div64(hi, lo, p)
	return rem
}

// powMod returns b^e mod p by square-and-multiply.
func powMod(b, e, p uint64) uint64 {
	z := uint64(1)
	b %= p
	for ; e > 0; e >>= 1 {
		if e&1 == 1 {
			z = mulMod(z, b, p)
		}
		b = mulMod(b, b, p)
	}
	return z
}

// invMod returns a⁻¹ mod p for prime p (Fermat).
func invMod(a, p uint64) uint64 { return powMod(a, p-2, p) }

// shoupOf returns ⌊w·2^64/p⌋, the Shoup precomputation for multiplying by a
// fixed w < p.
func shoupOf(w, p uint64) uint64 {
	q, _ := bits.Div64(w, 0, p)
	return q
}

// shoupMul returns x·w mod p, lazily in [0, 2p), for any 64-bit x and w < p
// with wShoup = shoupOf(w, p). Two multiplies, no divide.
func shoupMul(x, w, wShoup, p uint64) uint64 {
	q, _ := bits.Mul64(x, wShoup)
	return x*w - q*p
}

// redc returns a·b·2^−64 mod p, lazily in [0, 2p), for a, b in [0, 2p)
// (Montgomery reduction; valid while 4p² < 2^64·p, i.e. p < 2^62).
func redc(a, b, p, pInv uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	m := lo * pInv
	mh, ml := bits.Mul64(m, p)
	_, carry := bits.Add64(lo, ml, 0)
	return hi + mh + carry
}

// nttParMinHalf is the smallest butterfly half-block length worth splitting
// across pool workers: below it the fork/join overhead dominates the work.
const nttParMinHalf = 1 << 13

// forward runs the in-place forward transform of a (length a power of two)
// in the no-bit-reversal order. Input values must be in [0, 2p); output
// values are in [0, 2p). When par is non-nil, the long early-stage blocks
// are partitioned across the pool's workers (the twiddle is constant within
// a block, so chunks of the half-block range are independent).
func (pr *nttPrime) forward(a []uint64, par *workpool.Pool) {
	p := pr.p
	n := len(a)
	h := bits.Len(uint(n)) - 1
	for st := 0; st < h; st++ {
		half := 1 << (h - st - 1)
		rot := uint64(1)
		for s := 0; s < 1<<st; s++ {
			offset := s << (h - st)
			rotShoup := shoupOf(rot, p)
			if par != nil && half >= nttParMinHalf {
				pr.blockPar(a, offset, half, rot, rotShoup, false, par)
			} else {
				pr.forwardRange(a, offset, offset+half, half, rot, rotShoup)
			}
			if s+1 != 1<<st {
				rot = mulMod(rot, pr.rate[bits.TrailingZeros64(^uint64(s))], p)
			}
		}
	}
}

// forwardRange applies one stage's butterflies (l, r) → (l + rot·r,
// l − rot·r), all lazily in [0, 2p), to the pairs (a[i], a[i+half]) for i in
// [i0, i1). half is the butterfly stride; a sub-range of a block (the
// parallel chunks) keeps the full block's stride.
func (pr *nttPrime) forwardRange(a []uint64, i0, i1, half int, rot, rotShoup uint64) {
	p, twoP := pr.p, pr.twoP
	for i := i0; i < i1; i++ {
		l := a[i]
		t := shoupMul(a[i+half], rot, rotShoup, p)
		u0 := l + t
		if u0 >= twoP {
			u0 -= twoP
		}
		u1 := l + twoP - t
		if u1 >= twoP {
			u1 -= twoP
		}
		a[i], a[i+half] = u0, u1
	}
}

// blockPar splits one long block's butterfly range (forward, or inverse
// when inverse is set) across the pool; the chunks share the block's
// twiddle and stride, so they are independent.
func (pr *nttPrime) blockPar(a []uint64, offset, half int, rot, rotShoup uint64, inverse bool, par *workpool.Pool) {
	chunk := max((half+par.Capacity()-1)/par.Capacity(), nttParMinHalf/2)
	t := nttBlockTasks.Get().(*nttBlockTask)
	*t = nttBlockTask{pr: pr, a: a, offset: offset, half: half, chunk: chunk, rot: rot, rotShoup: rotShoup, inverse: inverse}
	par.Run(t, (half+chunk-1)/chunk)
	*t = nttBlockTask{}
	nttBlockTasks.Put(t)
}

// nttBlockTask is one long block's butterfly range as a pool batch: task i
// runs the i-th chunk. Batches are recycled through nttBlockTasks, so a
// split allocates nothing.
type nttBlockTask struct {
	pr                  *nttPrime
	a                   []uint64
	offset, half, chunk int
	rot, rotShoup       uint64
	inverse             bool
}

var nttBlockTasks = sync.Pool{New: func() any { return new(nttBlockTask) }}

func (t *nttBlockTask) Run(i int) {
	lo := t.offset + i*t.chunk
	hi := t.offset + min((i+1)*t.chunk, t.half)
	if t.inverse {
		t.pr.inverseRange(t.a, lo, hi, t.half, t.rot, t.rotShoup)
	} else {
		t.pr.forwardRange(t.a, lo, hi, t.half, t.rot, t.rotShoup)
	}
}

// inverse runs the in-place inverse transform (unscaled: the result is N
// times the inverse DFT), consuming the forward pass's order. Values stay in
// [0, 2p).
func (pr *nttPrime) inverse(a []uint64, par *workpool.Pool) {
	n := len(a)
	h := bits.Len(uint(n)) - 1
	for st := h; st >= 1; st-- {
		half := 1 << (h - st)
		irot := uint64(1)
		for s := 0; s < 1<<(st-1); s++ {
			offset := s << (h - st + 1)
			irotShoup := shoupOf(irot, pr.p)
			if par != nil && half >= nttParMinHalf {
				pr.blockPar(a, offset, half, irot, irotShoup, true, par)
			} else {
				pr.inverseRange(a, offset, offset+half, half, irot, irotShoup)
			}
			if s+1 != 1<<(st-1) {
				irot = mulMod(irot, pr.irate[bits.TrailingZeros64(^uint64(s))], pr.p)
			}
		}
	}
}

// inverseRange applies one inverse stage's butterflies (l, r) → (l + r,
// irot·(l − r)), all lazily in [0, 2p), to the pairs (a[i], a[i+half]) for i
// in [i0, i1); half is the butterfly stride, as in forwardRange.
func (pr *nttPrime) inverseRange(a []uint64, i0, i1, half int, irot, irotShoup uint64) {
	p, twoP := pr.p, pr.twoP
	for i := i0; i < i1; i++ {
		l := a[i]
		r := a[i+half]
		u0 := l + r
		if u0 >= twoP {
			u0 -= twoP
		}
		a[i] = u0
		a[i+half] = shoupMul(l+twoP-r, irot, irotShoup, p)
	}
}
