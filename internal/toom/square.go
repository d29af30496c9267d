package toom

import "repro/internal/bigint"

// Square returns a² via Toom-Cook-k with a single evaluation pass: both
// "operands" share their digit vector and evaluations, halving the
// evaluation work relative to Mul(a, a) (the squaring specialization of
// Zuras's "On squaring and multiplying large integers", cited by the
// paper's Section 1.1).
func (alg *Algorithm) Square(a bigint.Int) bigint.Int {
	return alg.SquareWithStats(a, nil)
}

// SquareWithStats is Square with operation counting; stats may be nil.
func (alg *Algorithm) SquareWithStats(a bigint.Int, stats *Stats) bigint.Int {
	return alg.run(a, a, true, stats)
}
