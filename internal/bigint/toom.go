package bigint

import (
	"fmt"
	"math/bits"
)

// The counted Toom-Cook-k recursion (Algorithm 1 of the paper) over arena
// scratch. internal/toom builds one ToomPlan per algorithm and calls Mul;
// the recursion lives here because it runs on nat and the limb arena, both
// private to this package. Every node draws its digits, evaluations,
// products and interpolation rows from one rented arena under mark/release
// (limbs from its slab, snat headers from its header stack), so a whole
// multiplication allocates only its result, and it reports the paper's
// word-operation count F (ToomCounts.WordOps) alongside.
//
// A node copies nothing it can alias: a unit row of U or W (one entry, ±1
// or ±wDen) is its digit or product with a sign, and the product equal to
// coefficient 0 is computed straight into the node's destination. Aliased
// values are read-only.

// MaxToomK bounds the split number. Above 8 the standard points' scaled
// interpolation matrix no longer fits int64, so no standard algorithm is
// excluded.
const MaxToomK = 8

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
// form ⟨U, U, W⟩ compiled to row programs, the evaluation-reuse row pairs,
// the base-case threshold and an optional interpolation schedule. It is
// safe for concurrent use; the With methods return modified copies.
type ToomPlan struct {
	k       int
	u       [][]int64  // (2k−1)×k evaluation rows
	uRows   []rowProg  // u compiled, for the rows evaluated on their own
	pairs   []evalPair // (+v, −v) rows sharing one pass over the digits
	singles []int      // rows evaluated on their own
	wRows   []rowProg  // scaled interpolation rows: W^T = w / wDen
	wDen    int64
	// direct is the product equal to coefficient 0 (W's row 0 is a unit
	// row on it), which a node computes straight into its destination; −1
	// when row 0 combines several products.
	direct    int
	threshold int // base case when both operands have at most this many bits
	// interp, when set, replaces the dense W^T product (a Toom-Graph
	// inversion sequence); on error the dense path runs instead.
	interp func([]Int) ([]Int, error)
	// Bits one row can add to its operands' magnitude: bit length of the
	// largest row sum of |entries| (an upper bound for w).
	uGrow, wGrow int
}

// term is one nonzero entry of a compiled row: coefficient c on digit (or
// product) j.
type term struct {
	j int
	c int64
}

// rowProg is a U or W row compiled to its nonzero terms in column order.
// unit marks a single term of magnitude 1 (U) or |wDen| (W): the row's
// value is that digit or product up to sign, so a node aliases it. lead2
// marks two leading ±1 terms, which a node combines in one add/sub pass.
type rowProg struct {
	terms       []term
	unit, lead2 bool
}

// compileRow compiles row; unit is the magnitude of a unit entry.
func compileRow(row []int64, unit int64) rowProg {
	var r rowProg
	for j, c := range row {
		if c != 0 {
			r.terms = append(r.terms, term{j, c})
		}
	}
	r.unit = len(r.terms) == 1 && absInt64(r.terms[0].c) == absInt64(unit)
	r.lead2 = len(r.terms) >= 2 && absInt64(r.terms[0].c) == 1 && absInt64(r.terms[1].c) == 1
	return r
}

// evalPair is a (+v, −v) row pair: E and O, the +v row's even and odd
// terms, give the two evaluations E+O and E−O (Zanoni's evaluation reuse).
type evalPair struct {
	plus, minus int
	even, odd   rowProg
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
	p := &ToomPlan{k: k, u: u, wDen: wDen, direct: -1, threshold: thresholdBits}
	for i := range u {
		if len(u[i]) != k || len(w[i]) != n {
			panic("bigint: NewToomPlan: ragged rows")
		}
		p.uGrow = max(p.uGrow, rowGrow(u[i]))
		p.wGrow = max(p.wGrow, rowGrow(w[i]))
		p.uRows = append(p.uRows, compileRow(u[i], 1))
		p.wRows = append(p.wRows, compileRow(w[i], wDen))
	}
	if p.wRows[0].unit {
		p.direct = p.wRows[0].terms[0].j
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
	cp.pairs = nil
	used := make([]bool, len(p.u))
	for _, pr := range pairs {
		used[pr[0]], used[pr[1]] = true, true
		even, odd := make([]int64, p.k), make([]int64, p.k)
		for m, c := range p.u[pr[0]] {
			if m%2 == 0 {
				even[m] = c
			} else {
				odd[m] = c
			}
		}
		cp.pairs = append(cp.pairs, evalPair{plus: pr[0], minus: pr[1], even: compileRow(even, 1), odd: compileRow(odd, 1)})
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
	limbs, headers := p.scratchFor(max(natBitLen(a.abs), natBitLen(b.abs)), square)
	ar.ensure(limbs)
	ar.ensureHeaders(headers)
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

// nodeHeaders is the number of snat headers one node takes from the
// header stack: its digits, evaluations (one vector when squaring) and
// products.
func (p *ToomPlan) nodeHeaders(square bool) int {
	n := 2*p.k - 1
	if square {
		return p.k + 2*n
	}
	return p.k + 3*n
}

// scratchFor bounds the arena a maxBits-bit multiplication draws on, in
// limbs and in headers: one node's allocations per level down the
// recursion path (a child's operands have at most shift+uGrow bits), plus
// the base-case kernel's scratch.
func (p *ToomPlan) scratchFor(maxBits int, square bool) (limbs, headers int) {
	ops := 2
	if square {
		ops = 1
	}
	n := 2*p.k - 1
	for maxBits > p.threshold {
		shift := (maxBits + p.k - 1) / p.k
		digit, eval, prod, row := p.toomCaps(shift)
		limbs += ops*(p.k*digit+n*eval) + eval + row + n*(prod+row)
		headers += p.nodeHeaders(square)
		next := shift + p.uGrow
		if next >= maxBits {
			break
		}
		maxBits = next
	}
	if tl := (p.threshold + 63) / 64; tl >= karatsubaThresholdLimbs() {
		limbs += mulScratchFor(tl, tl)
	}
	return limbs, headers
}

// mul writes |a|·|b| into *dst, the caller-owned destination (capacity
// len(a)+len(b)+1 keeps it in place). Everything else the node needs is
// drawn from ar and released before return. Evaluations may alias digits
// and coefficients may alias products or *dst, so a node only reads them:
// it writes nothing but the scratch it reserved and *dst.
func (p *ToomPlan) mul(dst *nat, a, b nat, square bool, ar *arena, c *ToomCounts) {
	maxBits := max(natBitLen(a), natBitLen(b))
	if len(a) == 0 || len(b) == 0 || maxBits <= p.threshold {
		p.base(dst, a, b, ar, c)
		return
	}
	if c != nil {
		c.RecursiveCalls++
	}
	k := p.k
	shift := (maxBits + k - 1) / k
	digitCap, evalCap, prodCap, rowCap := p.toomCaps(shift)
	mark := ar.mark()
	tmp := ar.reserve(rowCap) // word products of a row combination
	pairTmp := ar.reserve(evalCap)
	hdr := ar.headers(p.nodeHeaders(square))
	n := 2*k - 1
	digits, ea, prods := hdr[:k], hdr[k:k+n], hdr[k+n:k+2*n]
	eb := ea
	if !square {
		eb = hdr[k+2*n:]
	}

	// Split and evaluate (Algorithm 1, lines 4-7).
	splitInto(digits, a, shift, digitCap, ar)
	p.eval(ea, digits, evalCap, pairTmp, &tmp, ar, c)
	if !square {
		splitInto(digits, b, shift, digitCap, ar)
		p.eval(eb, digits, evalCap, pairTmp, &tmp, ar, c)
	}

	// Pointwise products, recursing (lines 8-14). The product equal to
	// coefficient 0 is computed straight into dst.
	for i := range n {
		x, y := ea[i], eb[i]
		pr := &prods[i]
		if i == p.direct {
			pr.abs = (*dst)[:0]
		} else {
			pr.abs = ar.reserve(prodCap)
		}
		p.mul(&pr.abs, x.abs, y.abs, square, ar, c)
		pr.neg = x.neg != y.neg && len(pr.abs) > 0
	}

	// Interpolate (line 15); the evaluation slots are dead, so the
	// coefficients reuse ea's headers.
	coeffs := ea
	hooked := p.interpolateHook(coeffs, prods, c)
	if !hooked {
		p.interpolate(coeffs, prods, rowCap, &tmp, ar, c)
	}

	// Recompose with carries (line 16): coefficient 0 is dst's low part,
	// already in place when it is the direct product, and every other
	// coefficient is added once at bit offset i·shift.
	z := coeffs[0].abs
	if hooked || p.direct < 0 {
		z = natSet((*dst)[:0], z)
	}
	var work int64
	for i, ci := range coeffs {
		if ci.neg {
			panic("bigint: Toom recomposition has a negative coefficient (interpolation does not invert the evaluation)")
		}
		work += wordsOfNat(ci.abs)
		if i > 0 {
			z = natAddShiftedTo(z, ci.abs, uint(i*shift))
		}
	}
	if c != nil {
		c.WordOps += work
	}
	*dst = z
	ar.release(mark)
}

// base writes |a|·|b| into *dst by the kernel ladder, charging one
// base-case product of len(a)·len(b) words (nothing for a zero operand).
func (p *ToomPlan) base(dst *nat, a, b nat, ar *arena, c *ToomCounts) {
	if len(a) == 0 || len(b) == 0 {
		*dst = (*dst)[:0]
		return
	}
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
}

// splitInto writes x's digits of shift bits into digits, each extracted
// into arena scratch of digitCap limbs.
func splitInto(digits []snat, x nat, shift, digitCap int, ar *arena) {
	for i := range digits {
		digits[i] = snat{abs: natExtractTo(ar.reserve(digitCap)[:digitCap], x, i*shift, shift)}
	}
}

// wordsOfNat is the F-charge for touching x once (at least one word).
func wordsOfNat(x nat) int64 {
	return max(int64(len(x)), 1)
}

// apply returns the row's combination Σ c·src[j], and the limbs of its
// terms, each counted as at least floor (the F-charge's unit). A unit row
// aliases its term with a sign; any other row accumulates into buf's
// storage, its first two terms in one pass when both are ±1. tmp takes
// word products.
func (r *rowProg) apply(src []snat, buf nat, tmp *nat, floor int) (snat, int64) {
	if r.unit {
		z := r.alias(src)
		return z, int64(max(len(z.abs), floor))
	}
	z := snat{abs: buf[:0]}
	ts := r.terms
	words := 0
	if r.lead2 {
		x, y := src[ts[0].j], src[ts[1].j]
		z.set2(x.abs, x.neg != (ts[0].c < 0), y.abs, y.neg != (ts[1].c < 0))
		words = max(len(x.abs), floor) + max(len(y.abs), floor)
		ts = ts[2:]
	}
	for _, t := range ts {
		x := src[t.j]
		z.addMul(x.abs, x.neg, t.c, tmp)
		words += max(len(x.abs), floor)
	}
	return z, int64(words)
}

// alias returns a unit row's value: its term's digit or product, signed
// by the entry. The caller must not write through it.
func (r *rowProg) alias(src []snat) snat {
	t := r.terms[0]
	x := src[t.j]
	return snat{neg: x.neg != (t.c < 0) && len(x.abs) > 0, abs: x.abs}
}

// eval writes the 2k−1 evaluations U·digits into out. Unit rows alias a
// digit; the others land in fresh scratch of evalCap limbs. A (+v, −v)
// pair shares one pass: the even and odd digit sums E and O give E+O and
// E−O.
func (p *ToomPlan) eval(out, digits []snat, evalCap int, pairTmp nat, tmp *nat, ar *arena, c *ToomCounts) {
	var work int64
	for i := range p.pairs {
		pr := &p.pairs[i]
		oddBuf := ar.reserve(evalCap)
		even, we := pr.even.apply(digits, pairTmp, tmp, 0)
		odd, wo := pr.odd.apply(digits, oddBuf, tmp, 0)
		work += 2 * (we + wo + wordsOfNat(even.abs))
		plus := snat{abs: ar.reserve(evalCap)}
		plus.set2(even.abs, even.neg, odd.abs, odd.neg)
		minus := snat{abs: oddBuf[:0]} // E−O in place over O when O was accumulated there
		minus.set2(even.abs, even.neg, odd.abs, !odd.neg)
		out[pr.plus], out[pr.minus] = plus, minus
	}
	for _, i := range p.singles {
		r := &p.uRows[i]
		if r.unit {
			out[i] = r.alias(digits)
			work += 2 * int64(len(out[i].abs))
			continue
		}
		z, w := r.apply(digits, ar.reserve(evalCap), tmp, 0)
		out[i] = z
		work += 2 * w
	}
	if c != nil {
		c.Evaluations++
		c.WordOps += work
	}
}

// interpolate writes the coefficients W^T·prods into out. A unit row
// (±wDen on one product) aliases that product with a sign; every other row
// is accumulated in fresh scratch of rowCap limbs and divided exactly by
// the common denominator. Each row is charged its pre-division length (for
// a unit row, the exact length of wDen·p) on top of the scalar-by-big work
// of every nonzero entry.
func (p *ToomPlan) interpolate(out, prods []snat, rowCap int, tmp *nat, ar *arena, c *ToomCounts) {
	var work int64
	for i := range p.wRows {
		r := &p.wRows[i]
		if r.unit {
			z := r.alias(prods)
			work += 2*wordsOfNat(z.abs) + max(int64(natMulWordLen(z.abs, absInt64(p.wDen))), 1)
			if p.wDen < 0 {
				z.negate()
			}
			out[i] = z
			continue
		}
		z, w := r.apply(prods, ar.reserve(rowCap), tmp, 1)
		work += 2*w + wordsOfNat(z.abs)
		if !z.divIfExact(p.wDen) {
			panic(fmt.Sprintf("bigint: Toom interpolation row %d not divisible by %d", i, p.wDen))
		}
		out[i] = z
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
