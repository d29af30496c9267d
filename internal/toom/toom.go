// Package toom implements sequential Toom-Cook-k long integer
// multiplication (Section 2.2 of the paper, Algorithm 1), including the
// Lazy-Interpolation variant of Bermudo Mera et al. (Algorithm 2).
//
// An Algorithm value captures the bilinear form ⟨U, V, W⟩ induced by a split
// number k and a set of 2k-1 evaluation points: U = V is the evaluation
// matrix for the digit polynomials and W^T inverts the product-polynomial
// evaluation. Integer work is kept exactly integral: U must have integer
// entries (true for all standard point sets), and W^T is applied as a scaled
// integer matrix (multiply by d·W^T, then divide exactly by d), so no
// rational arithmetic touches the big operands on the hot path.
//
// The recursion itself is bigint.ToomPlan, the counted kernel over arena
// scratch: an Algorithm builds its plan once and charges the counts the
// plan reports. EvalDigits, Interpolate and Recompose remain as the
// Int-valued single-level primitives for callers that distribute or
// inspect one level (MulConcurrent, the parallel tiers, the benchmarks).
//
// The same block primitives (EvalBlocks, InterpolateBlocks) are reused by
// the parallel algorithm in internal/parallel, whose BFS steps are exactly
// these block operations distributed across a processor grid.
package toom

import (
	"fmt"

	"repro/internal/bigint"
	"repro/internal/mat"
	"repro/internal/points"
)

// DefaultThresholdBits is the operand size below which the recursion bottoms
// out into schoolbook multiplication. It plays the role of the paper's
// hardware limit s: a product of two ≤s-bit integers is a "single machine
// operation" of the model (here, one schoolbook call on a handful of limbs).
const DefaultThresholdBits = 256

// Stats accumulates operation counts for one multiplication; pass to
// MulWithStats for the ablation benchmarks.
type Stats struct {
	BaseMuls       int64 // schoolbook base-case multiplications
	RecursiveCalls int64 // internal nodes of the recursion tree
	Evaluations    int64 // digit-vector evaluations (applications of U)
	Interpolations int64 // applications of W^T
	WordOps        int64 // word-level arithmetic operations (the model's F)
}

// chargeWords accumulates word-level operation counts when stats != nil.
func (s *Stats) chargeWords(n int64) {
	if s != nil {
		s.WordOps += n
	}
}

// wordsOf returns the F-charge for touching x once (at least one word).
func wordsOf(x bigint.Int) int64 {
	if l := int64(x.WordLen()); l > 0 {
		return l
	}
	return 1
}

// Algorithm is a ready-to-run Toom-Cook-k multiplier. It is immutable after
// construction and safe for concurrent use.
type Algorithm struct {
	k         int
	pts       []points.Point
	u         [][]int64             // (2k-1)×k integer evaluation matrix
	wNum      [][]int64             // (2k-1)×(2k-1) scaled interpolation numerators
	wDen      int64                 // common denominator: W^T = wNum / wDen
	interpSeq InterpolationSequence // optional Toom-Graph schedule
	// evalPairs holds the {+v, −v} row pairs at opposite finite points:
	// their values share the even/odd digit sums (E ± O), so both
	// evaluations cost one pass over the digits instead of two — Zanoni's
	// evaluation-reuse optimization mentioned in Section 1.1.
	evalPairs   [][2]int
	evalSingles []int            // rows not covered by a pair
	plan        *bigint.ToomPlan // the counted recursion over this form
}

// InterpolationSequence is an optimized interpolation schedule (a Toom-Graph
// inversion sequence, Definition 2.3): Apply must compute W^T·v exactly.
// internal/toomgraph.Sequence implements it.
type InterpolationSequence interface {
	Apply(v []bigint.Int) ([]bigint.Int, error)
}

// WithInterpolationSequence returns a copy of alg whose Interpolate uses the
// given inversion sequence (falling back to the scaled-matrix path if the
// sequence reports an error). The caller is responsible for supplying a
// sequence that matches alg's evaluation points; the toom tests and the
// ablation benchmarks verify the catalogued ones.
func (alg *Algorithm) WithInterpolationSequence(seq InterpolationSequence) *Algorithm {
	cp := *alg
	cp.interpSeq = seq
	var hook func([]bigint.Int) ([]bigint.Int, error)
	if seq != nil {
		hook = seq.Apply
	}
	cp.plan = alg.plan.WithInterp(hook)
	return &cp
}

// New returns the Toom-Cook-k algorithm over the standard evaluation points
// (0, 1, -1, 2, …, ∞). k must be at least 2; k = 2 is Karatsuba.
func New(k int) (*Algorithm, error) {
	if k < 2 {
		return nil, fmt.Errorf("toom: k must be >= 2, got %d", k)
	}
	return NewWithPoints(k, points.Standard(2*k-1))
}

// MustNew is New for known-good k; it panics on error.
func MustNew(k int) *Algorithm {
	alg, err := New(k)
	if err != nil {
		panic(err)
	}
	return alg
}

// NewWithPoints builds a Toom-Cook-k algorithm from an explicit point set of
// exactly 2k-1 pairwise non-proportional points. The evaluation matrix must
// be integral (all standard sets are); the interpolation matrix may be — and
// usually is — rational.
func NewWithPoints(k int, pts []points.Point) (*Algorithm, error) {
	if k < 2 {
		return nil, fmt.Errorf("toom: k must be >= 2, got %d", k)
	}
	if len(pts) != 2*k-1 {
		return nil, fmt.Errorf("toom: Toom-Cook-%d needs %d points, got %d", k, 2*k-1, len(pts))
	}
	if err := points.Valid(pts, 2*k-1); err != nil {
		return nil, err
	}
	u, err := IntRows(points.EvalMatrix(pts, k))
	if err != nil {
		return nil, fmt.Errorf("toom: evaluation matrix not integral: %w", err)
	}
	wt, err := points.Interpolation(pts, 2*k-1)
	if err != nil {
		return nil, err
	}
	wNum, wDen, err := wt.ScaledInts()
	if err != nil {
		return nil, fmt.Errorf("toom: interpolation matrix: %w", err)
	}
	if k > bigint.MaxToomK {
		return nil, fmt.Errorf("toom: k must be <= %d, got %d", bigint.MaxToomK, k)
	}
	alg := &Algorithm{
		k:    k,
		pts:  append([]points.Point(nil), pts...),
		u:    u,
		wNum: wNum,
		wDen: wDen,
	}
	alg.evalPairs, alg.evalSingles = detectPairs(pts)
	alg.plan = bigint.NewToomPlan(k, u, alg.evalPairs, wNum, wDen, DefaultThresholdBits)
	return alg, nil
}

// detectPairs finds (+v, −v) finite point pairs for evaluation reuse.
func detectPairs(pts []points.Point) ([][2]int, []int) {
	var pairs [][2]int
	used := make([]bool, len(pts))
	for i := range pts {
		if used[i] || pts[i].IsInfinity() || pts[i].X.IsZero() {
			continue
		}
		for j := i + 1; j < len(pts); j++ {
			if used[j] || pts[j].IsInfinity() {
				continue
			}
			if pts[i].H.Equal(pts[j].H) && pts[i].X.Equal(pts[j].X.Neg()) {
				pairs = append(pairs, [2]int{i, j})
				used[i], used[j] = true, true
				break
			}
		}
	}
	var singles []int
	for i := range pts {
		if !used[i] {
			singles = append(singles, i)
		}
	}
	return pairs, singles
}

// WithoutEvalReuse returns a copy that evaluates every row independently
// (for the evaluation-reuse ablation).
func (alg *Algorithm) WithoutEvalReuse() *Algorithm {
	cp := *alg
	cp.evalPairs = nil
	cp.evalSingles = make([]int, len(alg.pts))
	for i := range cp.evalSingles {
		cp.evalSingles[i] = i
	}
	cp.plan = alg.plan.WithPairs(nil)
	return &cp
}

// K returns the split number.
func (alg *Algorithm) K() int { return alg.k }

// Points returns the evaluation points (a copy).
func (alg *Algorithm) Points() []points.Point {
	return append([]points.Point(nil), alg.pts...)
}

// NumProducts returns the number of pointwise sub-products, 2k-1.
func (alg *Algorithm) NumProducts() int { return 2*alg.k - 1 }

// ThresholdBits returns the base-case threshold in bits.
func (alg *Algorithm) ThresholdBits() int { return alg.plan.ThresholdBits() }

// WithThreshold returns a copy of alg with a different base-case threshold
// (minimum 64 bits, so the recursion always terminates).
func (alg *Algorithm) WithThreshold(bits int) *Algorithm {
	if bits < 64 {
		bits = 64
	}
	cp := *alg
	cp.plan = alg.plan.WithThreshold(bits)
	return &cp
}

// Mul returns a·b via recursive Toom-Cook-k (Algorithm 1).
func (alg *Algorithm) Mul(a, b bigint.Int) bigint.Int {
	return alg.MulWithStats(a, b, nil)
}

// MulWithStats is Mul with operation counting; stats may be nil.
func (alg *Algorithm) MulWithStats(a, b bigint.Int, stats *Stats) bigint.Int {
	return alg.run(a, b, false, stats)
}

// run multiplies through the plan and charges its counts to stats.
func (alg *Algorithm) run(a, b bigint.Int, square bool, stats *Stats) bigint.Int {
	if stats == nil {
		return alg.plan.Mul(a, b, square, nil)
	}
	var c bigint.ToomCounts
	z := alg.plan.Mul(a, b, square, &c)
	stats.BaseMuls += c.BaseMuls
	stats.RecursiveCalls += c.RecursiveCalls
	stats.Evaluations += c.Evaluations
	stats.Interpolations += c.Interpolations
	stats.chargeWords(c.WordOps)
	return z
}

// EvalDigits applies the evaluation matrix U to a digit vector of length k,
// returning the 2k-1 evaluations. Exported for reuse by the parallel
// algorithm, whose BFS evaluation step performs exactly this per block.
func (alg *Algorithm) EvalDigits(digits []bigint.Int, stats *Stats) []bigint.Int {
	if len(digits) != alg.k {
		panic(fmt.Sprintf("toom: EvalDigits needs %d digits, got %d", alg.k, len(digits)))
	}
	if stats != nil {
		stats.Evaluations++
	}
	out := make([]bigint.Int, len(alg.u))
	// The digit sums accumulate in place (bigint.Acc): each row costs O(1)
	// heap allocations instead of one per nonzero matrix entry.
	evenAcc, oddAcc := bigint.NewAcc(), bigint.NewAcc()
	defer evenAcc.Release()
	defer oddAcc.Release()
	// Paired rows (±v): one pass computes the even and odd digit sums E and
	// O; the two evaluations are E+O and E−O (Zanoni's reuse).
	for _, pr := range alg.evalPairs {
		row := alg.u[pr[0]]
		var work int64
		for m, c := range row {
			if c == 0 || digits[m].IsZero() {
				continue
			}
			work += 2 * wordsOf(digits[m])
			if m%2 == 0 {
				evenAcc.AddMul(digits[m], c)
			} else {
				oddAcc.AddMul(digits[m], c)
			}
		}
		even, odd := evenAcc.Take(), oddAcc.Take()
		out[pr[0]] = even.Add(odd)
		out[pr[1]] = even.Sub(odd)
		work += 2 * wordsOf(even)
		if stats != nil {
			stats.chargeWords(work)
		}
	}
	for _, i := range alg.evalSingles {
		row := alg.u[i]
		var work int64
		for m, c := range row {
			if c == 0 || digits[m].IsZero() {
				continue
			}
			evenAcc.AddMul(digits[m], c)
			work += 2 * wordsOf(digits[m])
		}
		out[i] = evenAcc.Take()
		if stats != nil {
			stats.chargeWords(work)
		}
	}
	return out
}

// Interpolate applies W^T to the 2k-1 pointwise products, returning the
// 2k-1 coefficients of the product polynomial. All divisions are exact; a
// failure indicates corrupted inputs and panics.
func (alg *Algorithm) Interpolate(prods []bigint.Int, stats *Stats) []bigint.Int {
	if len(prods) != 2*alg.k-1 {
		panic(fmt.Sprintf("toom: Interpolate needs %d products, got %d", 2*alg.k-1, len(prods)))
	}
	if alg.interpSeq != nil {
		if out, err := alg.interpSeq.Apply(prods); err == nil {
			if stats != nil {
				stats.Interpolations++
				// A schedule touches each value a handful of times; charge
				// the touched words (cheaper than the dense-matrix charge,
				// which is the point of the Toom-Graph optimization).
				var w int64
				for _, v := range out {
					w += 2 * wordsOf(v)
				}
				stats.chargeWords(w)
			}
			return out
		}
	}
	if stats != nil {
		stats.Interpolations++
		stats.chargeWords(RowsWork(alg.wNum, prods))
	}
	return applyRowsScaled(alg.wNum, prods, alg.wDen, stats)
}

// applyRowsScaled computes (rows·x)/den row by row in one reusable
// accumulator: the scalar combination and the exact division both run in
// place, so each output costs a single allocation (the Take). The F charge
// per row uses the pre-division word length, matching the historical
// ApplyRows-then-DivExactInt64 accounting.
func applyRowsScaled(rows [][]int64, x []bigint.Int, den int64, stats *Stats) []bigint.Int {
	out := make([]bigint.Int, len(rows))
	acc := bigint.NewAcc()
	defer acc.Release()
	for i, row := range rows {
		if len(row) != len(x) {
			panic("toom: applyRowsScaled width mismatch")
		}
		for j, c := range row {
			if c == 0 || x[j].IsZero() {
				continue
			}
			acc.AddMul(x[j], c)
		}
		if stats != nil {
			w := int64(acc.WordLen())
			if w == 0 {
				w = 1
			}
			stats.chargeWords(w)
		}
		acc.DivExact(den)
		out[i] = acc.Take()
	}
	return out
}

// RowsWork returns the word-operation count of ApplyRows(rows, x): each
// nonzero coefficient costs one scalar-by-big multiply plus accumulate,
// charged as the operand's word length.
func RowsWork(rows [][]int64, x []bigint.Int) int64 {
	var work int64
	for _, row := range rows {
		for j, c := range row {
			if c == 0 {
				continue
			}
			work += 2 * wordsOf(x[j])
		}
	}
	return work
}

// splitDigits returns the k digits of |a| in base 2^shift (low digit first).
func splitDigits(a bigint.Int, k, shift int) []bigint.Int {
	d := make([]bigint.Int, k)
	for i := 0; i < k; i++ {
		d[i] = a.Extract(i*shift, shift)
	}
	return d
}

// Recompose evaluates a signed coefficient vector at B = 2^shift:
// Σ coeffs[i]·2^{i·shift}. The signed adds perform the carry propagation
// that Algorithm 1 calls "compute the carry".
//
//ftlint:allow costcharge recomposition is charged by the callers: the parallel leaf charges wordsOf per share digit, MulConcurrent runs uncounted, and AssembleFrom runs host-side outside the model (the counted kernel, bigint.ToomPlan, charges its own recomposition)
func Recompose(coeffs []bigint.Int, shift int) bigint.Int {
	acc := bigint.NewAcc()
	defer acc.Release()
	for i := len(coeffs) - 1; i >= 0; i-- {
		acc.Shl(uint(shift))
		acc.Add(coeffs[i])
	}
	return acc.Take()
}

// ApplyRows computes M·x for an integer matrix given as int64 rows. It is
// the workhorse of both evaluation and (scaled) interpolation: each output
// is a small-scalar combination of big integers.
//
//ftlint:allow costcharge a context-free primitive: callers charge its exact word cost via the companion RowsWork(rows, x)
func ApplyRows(rows [][]int64, x []bigint.Int) []bigint.Int {
	out := make([]bigint.Int, len(rows))
	acc := bigint.NewAcc()
	defer acc.Release()
	for i, row := range rows {
		if len(row) != len(x) {
			panic("toom: ApplyRows width mismatch")
		}
		for j, c := range row {
			if c == 0 || x[j].IsZero() {
				continue
			}
			acc.AddMul(x[j], c)
		}
		out[i] = acc.Take()
	}
	return out
}

// ApplyRowsToBlocks applies an integer matrix to a vector of *blocks*:
// blocks[j] is a digit vector and the matrix acts block-wise
// (out[i] = Σ_j M[i][j]·blocks[j], element-wise over the block). This is
// the "multiplication between a matrix and a block vector" of Algorithm 2,
// and the local computation of a parallel BFS step.
//
//ftlint:allow costcharge a context-free primitive: lazy-interpolation callers charge via blocksWork and the parallel layers charge the same work to their Proc
func ApplyRowsToBlocks(rows [][]int64, blocks [][]bigint.Int) [][]bigint.Int {
	if len(blocks) == 0 {
		return nil
	}
	blockLen := len(blocks[0])
	for _, b := range blocks {
		if len(b) != blockLen {
			panic("toom: ragged blocks")
		}
	}
	out := make([][]bigint.Int, len(rows))
	acc := bigint.NewAcc()
	defer acc.Release()
	for i, row := range rows {
		if len(row) != len(blocks) {
			panic("toom: ApplyRowsToBlocks width mismatch")
		}
		res := make([]bigint.Int, blockLen)
		for e := 0; e < blockLen; e++ {
			for j, c := range row {
				if c == 0 || blocks[j][e].IsZero() {
					continue
				}
				acc.AddMul(blocks[j][e], c)
			}
			res[e] = acc.Take()
		}
		out[i] = res
	}
	return out
}

// U returns the integer evaluation matrix rows (shared storage; callers must
// not modify).
func (alg *Algorithm) U() [][]int64 { return alg.u }

// WScaled returns the scaled interpolation matrix: rows wNum and the common
// denominator d with W^T = wNum/d (shared storage; callers must not modify).
func (alg *Algorithm) WScaled() ([][]int64, int64) { return alg.wNum, alg.wDen }

// IntRows converts a rational matrix with integer entries to int64 rows —
// the evaluation matrices of every Toom-Cook form, standard or extended.
func IntRows(m *mat.Matrix) ([][]int64, error) {
	rows, den, err := m.ScaledInts()
	if err == nil && den != 1 {
		err = fmt.Errorf("matrix has non-integer entries (common denominator %d)", den)
	}
	return rows, err
}
