package toom

import (
	"bytes"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/bigint"
	"repro/internal/toomgraph"
)

// The Int-valued Toom-Cook recursion that bigint.ToomPlan replaced, kept as
// a test-only oracle: every node allocates its digits, evaluations,
// products and coefficients as immutable Ints and charges Stats through the
// Int-valued EvalDigits and Interpolate. The counted kernel must reproduce
// its products and every Stats field exactly.

func refMulWithStats(alg *Algorithm, a, b bigint.Int, stats *Stats) bigint.Int {
	neg := a.Sign()*b.Sign() < 0
	z := refMulAbs(alg, a.Abs(), b.Abs(), stats)
	if neg {
		z = z.Neg()
	}
	return z
}

func refMulAbs(alg *Algorithm, a, b bigint.Int, stats *Stats) bigint.Int {
	if a.IsZero() || b.IsZero() {
		return bigint.Zero()
	}
	maxBits := a.BitLen()
	if b.BitLen() > maxBits {
		maxBits = b.BitLen()
	}
	if maxBits <= alg.ThresholdBits() {
		if stats != nil {
			stats.BaseMuls++
			// Schoolbook word cost of the base case.
			stats.chargeWords(wordsOf(a) * wordsOf(b))
		}
		return a.Mul(b)
	}
	if stats != nil {
		stats.RecursiveCalls++
	}
	k := alg.k
	// Shared base B = 2^shift, k digits each of shift bits (Algorithm 1,
	// line 4; the +1 rounding of the paper's base definition is the
	// ceiling here).
	shift := (maxBits + k - 1) / k

	da := splitDigits(a, k, shift)
	db := splitDigits(b, k, shift)

	// Evaluation: a' = U·ā, b' = V·b̄ (lines 6-7).
	ea := alg.EvalDigits(da, stats)
	eb := alg.EvalDigits(db, stats)

	// Pointwise products, recursing on large operands (lines 8-14).
	prods := make([]bigint.Int, 2*k-1)
	for i := range prods {
		prods[i] = refMulSigned(alg, ea[i], eb[i], stats)
	}

	// Interpolation: c̄ = W^T·c' (line 15).
	coeffs := alg.Interpolate(prods, stats)

	// Recomposition with carries: c = Σ c̄_i·B^i (line 16).
	if stats != nil {
		for _, c := range coeffs {
			stats.chargeWords(wordsOf(c))
		}
	}
	return Recompose(coeffs, shift)
}

// refMulSigned multiplies possibly-negative evaluations via the same recursion.
func refMulSigned(alg *Algorithm, a, b bigint.Int, stats *Stats) bigint.Int {
	neg := a.Sign()*b.Sign() < 0
	z := refMulAbs(alg, a.Abs(), b.Abs(), stats)
	if neg {
		z = z.Neg()
	}
	return z
}

func refSquareAbs(alg *Algorithm, a bigint.Int, stats *Stats) bigint.Int {
	if a.IsZero() {
		return bigint.Zero()
	}
	maxBits := a.BitLen()
	if maxBits <= alg.ThresholdBits() {
		if stats != nil {
			stats.BaseMuls++
			stats.chargeWords(wordsOf(a) * wordsOf(a))
		}
		return a.Mul(a)
	}
	if stats != nil {
		stats.RecursiveCalls++
	}
	k := alg.k
	shift := (maxBits + k - 1) / k
	da := splitDigits(a, k, shift)

	// One evaluation instead of two.
	ea := alg.EvalDigits(da, stats)

	prods := make([]bigint.Int, 2*k-1)
	for i := range prods {
		prods[i] = refSquareAbs(alg, ea[i].Abs(), stats)
	}

	coeffs := alg.Interpolate(prods, stats)
	if stats != nil {
		for _, c := range coeffs {
			stats.chargeWords(wordsOf(c))
		}
	}
	return Recompose(coeffs, shift)
}

// kernelVariants returns the algorithm variants the kernel must match the
// oracle on: default threshold, the 64-bit floor, a threshold past the
// Karatsuba rung, no evaluation reuse, and the Toom-Graph schedule.
func kernelVariants(k int) map[string]*Algorithm {
	alg := MustNew(k)
	return map[string]*Algorithm{
		"default":   alg,
		"thr64":     alg.WithThreshold(64),
		"thr4096":   alg.WithThreshold(4096),
		"noreuse":   alg.WithoutEvalReuse(),
		"toomgraph": alg.WithInterpolationSequence(toomgraph.ForK(k)),
	}
}

// allOnes returns 2^bits − 1.
func allOnes(bits int) bigint.Int {
	return bigint.One().Shl(uint(bits)).Sub(bigint.One())
}

// checkAgainstReference multiplies (or squares) through the kernel and the
// oracle and compares the products and every Stats field.
func checkAgainstReference(t *testing.T, name string, alg *Algorithm, a, b bigint.Int, square bool) {
	t.Helper()
	var got, want Stats
	var zg, zw bigint.Int
	if square {
		zg = alg.SquareWithStats(a, &got)
		zw = refSquareAbs(alg, a.Abs(), &want)
	} else {
		zg = alg.MulWithStats(a, b, &got)
		zw = refMulWithStats(alg, a, b, &want)
	}
	if !zg.Equal(zw) {
		t.Fatalf("%s: %d-bit × %d-bit (square=%v): product differs from the reference", name, a.BitLen(), b.BitLen(), square)
	}
	if got != want {
		t.Fatalf("%s: %d-bit × %d-bit (square=%v): stats %+v, reference %+v", name, a.BitLen(), b.BitLen(), square, got, want)
	}
}

// TestKernelMatchesReference pins the counted kernel to the Int-valued
// recursion: same product, same BaseMuls, RecursiveCalls, Evaluations,
// Interpolations and WordOps, over every variant and operand shape.
func TestKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(141))
	const n = 9000
	shapes := map[string][2]bigint.Int{
		"zero":       {bigint.Zero(), bigint.Random(rng, n)},
		"one-limb":   {bigint.Random(rng, 64), bigint.Random(rng, n)},
		"unbalanced": {bigint.Random(rng, n/8), bigint.Random(rng, 7*n/8)},
		"all-ones":   {allOnes(n), allOnes(n - 77)},
		"negative":   {bigint.Random(rng, n).Neg(), bigint.Random(rng, n-300)},
		"both-neg":   {bigint.Random(rng, n).Neg(), bigint.Random(rng, n).Neg()},
		"balanced":   {bigint.Random(rng, n), bigint.Random(rng, n)},
		// 9216 = 64·12·12 bits: the top node's digits are word-aligned for
		// k = 2, 3 and 4 (whole-limb extraction).
		"aligned": {withTopBit(bigint.Random(rng, aligned), aligned), withTopBit(bigint.Random(rng, aligned), aligned)},
		// A zero low digit makes the product computed into the
		// destination (coefficient 0) empty.
		"zero-low": {bigint.Random(rng, n/2).Shl(n / 2), bigint.Random(rng, n)},
	}
	for _, k := range []int{2, 3, 4} {
		for vname, alg := range kernelVariants(k) {
			for sname, ab := range shapes {
				name := vname + "/" + sname
				checkAgainstReference(t, name, alg, ab[0], ab[1], false)
				checkAgainstReference(t, name, alg, ab[1], ab[0], false)
				checkAgainstReference(t, name, alg, ab[0], ab[1], true)
			}
		}
		// Exactly 2^16 bits, the FT leaf size: word-aligned digits at the
		// top node for k = 2 and 4.
		a, b := withTopBit(bigint.Random(rng, 1<<16), 1<<16), withTopBit(bigint.Random(rng, 1<<16), 1<<16)
		for _, vname := range []string{"default", "toomgraph"} {
			alg := kernelVariants(k)[vname]
			checkAgainstReference(t, vname+"/2^16", alg, a, b, false)
			checkAgainstReference(t, vname+"/2^16", alg, a, b, true)
		}
	}
}

// aligned is a width whose Toom-2, -3 and -4 digits are whole limbs.
const aligned = 64 * 12 * 12

// withTopBit returns the low bits−1 bits of x plus 2^(bits−1): a value of
// bit length exactly bits.
func withTopBit(x bigint.Int, bits int) bigint.Int {
	return x.Extract(0, bits-1).Add(bigint.One().Shl(uint(bits - 1)))
}

// FuzzToomMul checks kernel products against math/big and kernel Stats
// against the reference recursion. The variant byte selects k (2-4), the
// algorithm variant, squaring and the operand signs; operands are inflated
// so the recursion runs several levels even at the default threshold.
func FuzzToomMul(f *testing.F) {
	f.Add([]byte{}, []byte{1}, uint8(0))
	f.Add([]byte{1}, []byte{0xff}, uint8(3))
	f.Add([]byte{0xff, 0xff, 0xff}, []byte{1, 0, 0, 0, 1}, uint8(0x47))
	f.Add(bytes.Repeat([]byte{0xff}, 97), bytes.Repeat([]byte{0xff}, 301), uint8(0x8a))
	f.Add(bytes.Repeat([]byte{0x80, 0}, 40), []byte{3}, uint8(0x65))
	f.Add([]byte{0x12, 0x34, 0x56}, []byte{0x9a, 0xbc}, uint8(0x2e))
	// Word-aligned widths: 8-byte patterns inflate to 4864 = 64·76 bits, so
	// the top node's digits are whole limbs (k=2 default; k=4 at the
	// 64-bit threshold).
	f.Add(bytes.Repeat([]byte{0xff}, 8), []byte{0x80, 1, 2, 3, 4, 5, 6, 7}, uint8(0))
	f.Add(bytes.Repeat([]byte{0xc3}, 8), bytes.Repeat([]byte{0xff}, 8), uint8(5))
	// A 1 followed by 1023 zero bytes: every digit but the top one is zero,
	// so the product computed into the destination is empty (k=3 default;
	// k=4 with the Toom-Graph schedule, whose coefficient 0 is a fresh Int).
	f.Add(append([]byte{1}, make([]byte, 1023)...), bytes.Repeat([]byte{0xa5}, 700), uint8(1))
	f.Add(append([]byte{1}, make([]byte, 1023)...), bytes.Repeat([]byte{0x5a}, 900), uint8(14))
	variants := map[int]map[string]*Algorithm{}
	for k := 2; k <= 4; k++ {
		variants[k] = kernelVariants(k)
	}
	names := []string{"default", "thr64", "thr4096", "noreuse", "toomgraph"}
	f.Fuzz(func(t *testing.T, ab, bb []byte, v uint8) {
		k := 2 + int(v%3)
		name := names[int(v/3)%len(names)]
		alg := variants[k][name]
		// Cap the operands at 16 kbit so one input stays a few milliseconds.
		x := new(big.Int).SetBytes(inflateBytes(ab[:min(len(ab), 2048)], 600))
		y := new(big.Int).SetBytes(inflateBytes(bb[:min(len(bb), 2048)], 600))
		if v&0x40 != 0 {
			x.Neg(x)
		}
		if v&0x20 != 0 {
			y.Neg(y)
		}
		square := v&0x80 != 0
		if square {
			y.Set(x)
		}
		a, b := bigint.FromBig(x), bigint.FromBig(y)
		var z bigint.Int
		if square {
			z = alg.Square(a)
		} else {
			z = alg.Mul(a, b)
		}
		if z.ToBig().Cmp(new(big.Int).Mul(x, y)) != 0 {
			t.Fatalf("k=%d %s: %d-bit × %d-bit (square=%v): product differs from math/big", k, name, x.BitLen(), y.BitLen(), square)
		}
		checkAgainstReference(t, name, alg, a, b, square)
	})
}

// inflateBytes deterministically stretches b past n bytes by repetition.
func inflateBytes(b []byte, n int) []byte {
	if len(b) == 0 {
		return b
	}
	return bytes.Repeat(b, n/len(b)+1)
}

// TestMulAllocs pins the kernel's allocation contract: a 2^16-bit product
// or square allocates only its result, whatever the recursion depth, the
// split number, the threshold or the operands' balance. The node headers
// come from the arena's header stack, sized up front, so its growth path
// never runs per call. The kernel never forks, so this holds at any
// GOMAXPROCS (go test -cpu 1,4).
func TestMulAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled arenas at random")
	}
	rng := rand.New(rand.NewSource(142))
	a, b := bigint.Random(rng, 1<<16), bigint.Random(rng, 1<<16)
	small := bigint.Random(rng, 1<<13) // 1:7 against the 2^16-bit operand
	for _, k := range []int{2, 3, 4} {
		for _, thr := range []int{0, 64} {
			alg := MustNew(k)
			if thr != 0 {
				alg = alg.WithThreshold(thr)
			}
			var s Stats
			if got := testing.AllocsPerRun(10, func() { alg.MulWithStats(a, b, &s) }); got > 1 {
				t.Errorf("k=%d thr=%d: MulWithStats allocates %.1f times per op, want ≤ 1 (the result)", k, thr, got)
			}
			if got := testing.AllocsPerRun(10, func() { alg.MulWithStats(small, b, &s) }); got > 1 {
				t.Errorf("k=%d thr=%d: 1:7 MulWithStats allocates %.1f times per op, want ≤ 1 (the result)", k, thr, got)
			}
			if got := testing.AllocsPerRun(10, func() { alg.Square(a) }); got > 1 {
				t.Errorf("k=%d thr=%d: Square allocates %.1f times per op, want ≤ 1 (the result)", k, thr, got)
			}
		}
	}
}
