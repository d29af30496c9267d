package toom

import "repro/internal/bigint"

// MulConcurrent returns a·b like Mul, but computes the 2k-1 pointwise
// products of the top `depth` recursion levels in parallel — real host
// parallelism, as opposed to the simulated machine of internal/parallel.
// With depth d the recursion exposes up to (2k-1)^d independent leaf
// multiplications; depth 0 is exactly Mul.
//
// Parallelism is bounded by the shared GOMAXPROCS-sized worker pool
// (pool.go): each level submits its sub-products to the pool and computes
// whatever the pool declines inline, so deep fan-outs stop spawning
// (2k-1)^d goroutines while the recursion-tree independence the paper's BFS
// steps distribute is still fully exploited.
func (alg *Algorithm) MulConcurrent(a, b bigint.Int, depth int) bigint.Int {
	neg := a.Sign()*b.Sign() < 0
	z := alg.mulConcurrentAbs(a.Abs(), b.Abs(), depth)
	if neg {
		z = z.Neg()
	}
	return z
}

func (alg *Algorithm) mulConcurrentAbs(a, b bigint.Int, depth int) bigint.Int {
	if a.IsZero() || b.IsZero() {
		return bigint.Zero()
	}
	maxBits := a.BitLen()
	if b.BitLen() > maxBits {
		maxBits = b.BitLen()
	}
	if depth <= 0 || maxBits <= alg.ThresholdBits() {
		return alg.Mul(a, b)
	}
	k := alg.k
	shift := (maxBits + k - 1) / k
	da := splitDigits(a, k, shift)
	db := splitDigits(b, k, shift)
	ea := alg.EvalDigits(da, nil)
	eb := alg.EvalDigits(db, nil)

	lv := &concurrentLevel{alg: alg, ea: ea, eb: eb, prods: make([]bigint.Int, 2*k-1), depth: depth - 1}
	leafPool.Run(lv, len(lv.prods))

	coeffs := alg.Interpolate(lv.prods, nil)
	return Recompose(coeffs, shift)
}

// concurrentLevel is one recursion level's pointwise products as a pool
// batch: task i multiplies the i-th evaluations one level further down.
type concurrentLevel struct {
	alg    *Algorithm
	ea, eb []bigint.Int
	prods  []bigint.Int
	depth  int
}

func (lv *concurrentLevel) Run(i int) {
	x, y := lv.ea[i], lv.eb[i]
	z := lv.alg.mulConcurrentAbs(x.Abs(), y.Abs(), lv.depth)
	if x.Sign()*y.Sign() < 0 {
		z = z.Neg()
	}
	lv.prods[i] = z
}
