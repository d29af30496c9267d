package bigint

import (
	"fmt"
	"math/bits"
)

// The counted Toom-Cook-k recursion (Algorithm 1 of the paper) over arena
// scratch. internal/toom builds one ToomPlan per algorithm and calls Mul;
// the recursion lives here because it runs on nat and the limb arena, both
// private to this package. Every node draws its digits, evaluations,
// products and interpolation rows from one rented arena under mark/release,
// so a whole multiplication allocates only its result, and it reports the
// paper's word-operation count F (ToomCounts.WordOps) alongside.

// MaxToomK bounds the split number so each node's digit, evaluation and
// product vectors fit fixed-size stack arrays. Above 8 the standard points'
// scaled interpolation matrix no longer fits int64, so no standard
// algorithm is excluded.
const MaxToomK = 8

// maxToomPoints is 2·MaxToomK − 1, the longest evaluation vector.
const maxToomPoints = 2*MaxToomK - 1

// ToomCounts is the operation count of one ToomPlan.Mul, field for field
// the toom.Stats the caller charges it to.
type ToomCounts struct {
	BaseMuls       int64 // base-case products below the threshold
	RecursiveCalls int64 // internal nodes of the recursion tree
	Evaluations    int64 // digit-vector evaluations (applications of U)
	Interpolations int64 // applications of W^T
	WordOps        int64 // word-level arithmetic operations (the model's F)
}

// ToomPlan is an immutable Toom-Cook-k multiplication plan: the bilinear
// form ⟨U, U, W⟩ as integer rows, the evaluation-reuse row pairs, the
// base-case threshold and an optional interpolation schedule. It is safe
// for concurrent use; the With methods return modified copies.
type ToomPlan struct {
	k         int
	u         [][]int64 // (2k−1)×k evaluation rows
	pairs     [][2]int  // (+v, −v) rows sharing one pass over the digits
	singles   []int     // rows evaluated on their own
	w         [][]int64 // scaled interpolation rows: W^T = w / wDen
	wDen      int64
	threshold int // base case when both operands have at most this many bits
	// interp, when set, replaces the dense W^T product (a Toom-Graph
	// inversion sequence); on error the dense path runs instead.
	interp func([]Int) ([]Int, error)
	// Bits one row can add to its operands' magnitude: bit length of the
	// largest row sum of |entries| (an upper bound for w).
	uGrow, wGrow int
}

// NewToomPlan builds a plan from the evaluation rows u ((2k−1)×k), the
// scaled interpolation rows w ((2k−1)×(2k−1), W^T = w/wDen), the rows
// evaluated pairwise (pairs[i] = {+v row, −v row}) and the base-case
// threshold in bits. Every row not in a pair is evaluated on its own. It
// panics on malformed shapes or k outside [2, 8]: the plan is built once
// from a validated algorithm, so a mismatch is a logic error.
func NewToomPlan(k int, u [][]int64, pairs [][2]int, w [][]int64, wDen int64, thresholdBits int) *ToomPlan {
	n := 2*k - 1
	if k < 2 || k > MaxToomK || len(u) != n || len(w) != n || wDen == 0 {
		panic(fmt.Sprintf("bigint: NewToomPlan: bad Toom-Cook-%d form (%d eval rows, %d interp rows, den %d)", k, len(u), len(w), wDen))
	}
	p := &ToomPlan{k: k, u: u, w: w, wDen: wDen, threshold: thresholdBits}
	for i := range u {
		if len(u[i]) != k || len(w[i]) != n {
			panic("bigint: NewToomPlan: ragged rows")
		}
		p.uGrow = max(p.uGrow, rowGrow(u[i]))
		p.wGrow = max(p.wGrow, rowGrow(w[i]))
	}
	return p.WithPairs(pairs)
}

// rowGrow bounds log2 of Σ|row|: the bits a row combination can add.
func rowGrow(row []int64) int {
	var top uint64
	for _, c := range row {
		top = max(top, absInt64(c))
	}
	return bits.Len64(top) + bits.Len(uint(len(row)))
}

// WithThreshold returns a copy with a different base-case threshold.
func (p *ToomPlan) WithThreshold(bits int) *ToomPlan {
	cp := *p
	cp.threshold = bits
	return &cp
}

// WithPairs returns a copy whose evaluation shares one digit pass between
// the rows of each pair (nil evaluates every row on its own).
func (p *ToomPlan) WithPairs(pairs [][2]int) *ToomPlan {
	cp := *p
	cp.pairs = pairs
	used := make([]bool, len(p.u))
	for _, pr := range pairs {
		used[pr[0]], used[pr[1]] = true, true
	}
	cp.singles = nil
	for i, in := range used {
		if !in {
			cp.singles = append(cp.singles, i)
		}
	}
	return &cp
}

// WithInterp returns a copy whose interpolation runs fn (nil restores the
// dense W^T product).
func (p *ToomPlan) WithInterp(fn func([]Int) ([]Int, error)) *ToomPlan {
	cp := *p
	cp.interp = fn
	return &cp
}

// ThresholdBits returns the base-case threshold in bits.
func (p *ToomPlan) ThresholdBits() int { return p.threshold }

// Mul returns a·b by the plan's Toom-Cook-k recursion, adding the operation
// counts to c when c != nil. square reports that b is a: each node then
// evaluates one digit vector and squares below it. The only heap allocation
// is the result (the schedule hook, when set, materializes Ints).
func (p *ToomPlan) Mul(a, b Int, square bool, c *ToomCounts) Int {
	if len(a.abs) == 0 || len(b.abs) == 0 {
		return Int{}
	}
	z := make(nat, 0, len(a.abs)+len(b.abs)+1)
	ar := getArena()
	ar.ensure(p.scratchFor(max(natBitLen(a.abs), natBitLen(b.abs)), square))
	p.mul(&z, a.abs, b.abs, square, ar, c)
	putArena(ar)
	return Int{neg: a.neg != b.neg, abs: z}
}

// toomCaps returns a node's scratch capacities, in limbs, for digits of
// shift bits: digits, evaluations (each also a child operand), products
// and interpolation rows. Each carries one limb of headroom beyond its
// value bound, which the in-place kernels need for their carry limb.
func (p *ToomPlan) toomCaps(shift int) (digit, eval, prod, row int) {
	digit = (shift + 63) / 64
	evalLimbs := (shift + p.uGrow + 63) / 64
	eval = evalLimbs + 1
	prod = 2*evalLimbs + 1
	row = (128*evalLimbs+p.wGrow+63)/64 + 1
	return
}

// scratchFor bounds the arena a maxBits-bit multiplication draws on: one
// node's allocations per level down the recursion path (a child's operands
// have at most shift+uGrow bits), plus the base-case kernel's scratch.
func (p *ToomPlan) scratchFor(maxBits int, square bool) int {
	ops := 2
	if square {
		ops = 1
	}
	n := 2*p.k - 1
	total := 0
	for maxBits > p.threshold {
		shift := (maxBits + p.k - 1) / p.k
		digit, eval, prod, row := p.toomCaps(shift)
		total += ops*(p.k*digit+n*eval) + eval + row + n*(prod+row)
		next := shift + p.uGrow
		if next >= maxBits {
			break
		}
		maxBits = next
	}
	if tl := (p.threshold + 63) / 64; tl >= karatsubaThresholdLimbs() {
		total += mulScratchFor(tl, tl)
	}
	return total
}

// mul writes |a|·|b| into *dst, the caller-owned destination (capacity
// len(a)+len(b)+1 keeps it in place). Everything else the node needs is
// drawn from ar and released before return.
func (p *ToomPlan) mul(dst *nat, a, b nat, square bool, ar *arena, c *ToomCounts) {
	if len(a) == 0 || len(b) == 0 {
		*dst = (*dst)[:0]
		return
	}
	maxBits := max(natBitLen(a), natBitLen(b))
	if maxBits <= p.threshold {
		if c != nil {
			c.BaseMuls++
			c.WordOps += int64(len(a)) * int64(len(b))
		}
		if len(a) < len(b) {
			a, b = b, a
		}
		z := natGrow(*dst, len(a)+len(b))
		clear(z)
		mulTo(z, a, b, ar)
		*dst = z.norm()
		return
	}
	if c != nil {
		c.RecursiveCalls++
	}
	k, n := p.k, 2*p.k-1
	shift := (maxBits + k - 1) / k
	digitCap, evalCap, prodCap, rowCap := p.toomCaps(shift)
	mark := ar.mark()
	tmp := ar.reserve(rowCap) // word products of a row combination
	pairTmp := snat{abs: ar.reserve(evalCap)}

	// Split and evaluate (Algorithm 1, lines 4-7).
	var digits [MaxToomK]nat
	var ea, eb [maxToomPoints]snat
	for i := range k {
		digits[i] = natExtractTo(ar.reserve(digitCap)[:digitCap], a, i*shift, shift)
	}
	p.eval(ea[:n], digits[:k], evalCap, &pairTmp, &tmp, ar, c)
	if !square {
		for i := range k {
			digits[i] = natExtractTo(ar.reserve(digitCap)[:digitCap], b, i*shift, shift)
		}
		p.eval(eb[:n], digits[:k], evalCap, &pairTmp, &tmp, ar, c)
	}

	// Pointwise products, recursing (lines 8-14).
	var prods [maxToomPoints]snat
	for i := range n {
		pr := &prods[i]
		pr.abs = ar.reserve(prodCap)
		if square {
			p.mul(&pr.abs, ea[i].abs, ea[i].abs, true, ar, c)
			continue
		}
		p.mul(&pr.abs, ea[i].abs, eb[i].abs, false, ar, c)
		pr.neg = ea[i].neg != eb[i].neg && len(pr.abs) > 0
	}

	// Interpolate (line 15); the evaluation slots are dead, so the
	// coefficients reuse ea's headers.
	coeffs := ea[:n]
	if !p.interpolateHook(coeffs, prods[:n], c) {
		p.interpolate(coeffs, prods[:n], rowCap, &tmp, ar, c)
	}

	// Recompose with carries: Horner at B = 2^shift into dst (line 16).
	z := snat{abs: (*dst)[:0]}
	for i := n - 1; i >= 0; i-- {
		if c != nil {
			c.WordOps += wordsOfNat(coeffs[i].abs)
		}
		z.abs = natShlTo(z.abs, z.abs, uint(shift))
		z.add(coeffs[i].abs, coeffs[i].neg)
	}
	if z.neg {
		panic("bigint: Toom recomposition is negative (interpolation does not invert the evaluation)")
	}
	*dst = z.abs
	ar.release(mark)
}

// wordsOfNat is the F-charge for touching x once (at least one word).
func wordsOfNat(x nat) int64 {
	return max(int64(len(x)), 1)
}

// eval writes the 2k−1 evaluations U·digits into out, each in fresh
// scratch of evalCap limbs. A (+v, −v) pair shares one pass: the even and
// odd digit sums E and O give E+O and E−O (Zanoni's evaluation reuse).
func (p *ToomPlan) eval(out []snat, digits []nat, evalCap int, pairTmp *snat, tmp *nat, ar *arena, c *ToomCounts) {
	var work int64
	for _, pr := range p.pairs {
		even, odd := pairTmp, &out[pr[1]]
		*even = snat{abs: even.abs[:0]}
		*odd = snat{abs: ar.reserve(evalCap)}
		for m, cm := range p.u[pr[0]] {
			if cm == 0 || len(digits[m]) == 0 {
				continue
			}
			work += 2 * int64(len(digits[m]))
			if m%2 == 0 {
				even.addMul(digits[m], false, cm, tmp)
			} else {
				odd.addMul(digits[m], false, cm, tmp)
			}
		}
		work += 2 * wordsOfNat(even.abs)
		sum := &out[pr[0]]
		*sum = snat{abs: ar.reserve(evalCap)}
		sum.add(even.abs, even.neg)
		sum.add(odd.abs, odd.neg)
		odd.negate()
		odd.add(even.abs, even.neg)
	}
	for _, i := range p.singles {
		z := &out[i]
		*z = snat{abs: ar.reserve(evalCap)}
		for m, cm := range p.u[i] {
			if cm == 0 || len(digits[m]) == 0 {
				continue
			}
			work += 2 * int64(len(digits[m]))
			z.addMul(digits[m], false, cm, tmp)
		}
	}
	if c != nil {
		c.Evaluations++
		c.WordOps += work
	}
}

// interpolate writes the coefficients W^T·prods into out, one scaled row at
// a time in fresh scratch of rowCap limbs, each then divided exactly by
// the common denominator. Each row is charged its pre-division length on
// top of the scalar-by-big work of every nonzero entry.
func (p *ToomPlan) interpolate(out, prods []snat, rowCap int, tmp *nat, ar *arena, c *ToomCounts) {
	var work int64
	for i, row := range p.w {
		z := &out[i]
		*z = snat{abs: ar.reserve(rowCap)}
		for j, wj := range row {
			if wj != 0 {
				work += 2 * wordsOfNat(prods[j].abs)
			}
			z.addMul(prods[j].abs, prods[j].neg, wj, tmp)
		}
		work += wordsOfNat(z.abs)
		if !z.divIfExact(p.wDen) {
			panic(fmt.Sprintf("bigint: Toom interpolation row %d not divisible by %d", i, p.wDen))
		}
	}
	if c != nil {
		c.Interpolations++
		c.WordOps += work
	}
}

// interpolateHook runs the plan's schedule, when set, on heap copies of the
// products and points out at its coefficients. A schedule touches each
// value a handful of times, so it is charged two words per output word. It
// reports false (nothing written) when there is no schedule or it fails.
func (p *ToomPlan) interpolateHook(out, prods []snat, c *ToomCounts) bool {
	if p.interp == nil {
		return false
	}
	in := make([]Int, len(prods))
	for j, pr := range prods {
		in[j] = FromLimbs(pr.neg, pr.abs)
	}
	res, err := p.interp(in)
	if err != nil || len(res) != len(out) {
		return false
	}
	var work int64
	for i, v := range res {
		out[i] = snat{neg: v.neg, abs: v.abs}
		work += 2 * wordsOfNat(v.abs)
	}
	if c != nil {
		c.Interpolations++
		c.WordOps += work
	}
	return true
}
