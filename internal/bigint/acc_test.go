package bigint

import (
	"math/big"
	"math/rand"
	"testing"
)

// randNat returns a random canonical nat of exactly n limbs (top limb
// nonzero) — or empty for n == 0.
func randNat(rng *rand.Rand, n int) nat {
	if n == 0 {
		return nil
	}
	z := make(nat, n)
	for i := range z {
		z[i] = rng.Uint64()
	}
	for z[n-1] == 0 {
		z[n-1] = rng.Uint64()
	}
	return z
}

func natToBig(x nat) *big.Int {
	return Int{abs: x}.ToBig()
}

// TestNatMulKaratsubaCrossCheck exercises natMul across the schoolbook/
// Karatsuba threshold, balanced and unbalanced, against math/big.
func TestNatMulKaratsubaCrossCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	kt := karatsubaThresholdLimbs()
	sizes := []int{0, 1, 2, 5, kt - 1, kt, kt + 1, 2*kt + 3, 4 * kt, 10*kt + 7}
	for _, nx := range sizes {
		for _, ny := range sizes {
			x := randNat(rng, nx)
			y := randNat(rng, ny)
			got := natToBig(natMul(x, y))
			want := new(big.Int).Mul(natToBig(x), natToBig(y))
			if got.Cmp(want) != 0 {
				t.Fatalf("natMul mismatch at %d×%d limbs", nx, ny)
			}
		}
	}
}

// TestNatMulSparseOperands hits the carry-propagation paths of basicMulTo
// and karatsuba with all-ones and single-bit patterns.
func TestNatMulSparseOperands(t *testing.T) {
	n := 3 * karatsubaThresholdLimbs()
	ones := make(nat, n)
	for i := range ones {
		ones[i] = ^uint64(0)
	}
	single := make(nat, n)
	single[n-1] = 1
	for _, tc := range []struct{ x, y nat }{
		{ones, ones}, {ones, single}, {single, single},
	} {
		got := natToBig(natMul(tc.x, tc.y))
		want := new(big.Int).Mul(natToBig(tc.x), natToBig(tc.y))
		if got.Cmp(want) != 0 {
			t.Fatalf("natMul mismatch on sparse pattern")
		}
	}
}

// TestNatToVariantsAliasing checks the destination-reuse kernels with dst
// aliasing each operand, against math/big.
func TestNatToVariantsAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 200; iter++ {
		nx, ny := rng.Intn(20), rng.Intn(20)
		x, y := randNat(rng, nx), randNat(rng, ny)
		bx, by := natToBig(x), natToBig(y)

		// dst aliases x.
		xc := append(nat(nil), x...)
		got := natAddTo(xc, xc, y)
		if natToBig(got).Cmp(new(big.Int).Add(bx, by)) != 0 {
			t.Fatalf("natAddTo(alias x) mismatch")
		}
		// dst aliases y.
		yc := append(nat(nil), y...)
		got = natAddTo(yc, x, yc)
		if natToBig(got).Cmp(new(big.Int).Add(bx, by)) != 0 {
			t.Fatalf("natAddTo(alias y) mismatch")
		}
		if natCmp(x, y) >= 0 {
			xc = append(nat(nil), x...)
			got = natSubTo(xc, xc, y)
			if natToBig(got).Cmp(new(big.Int).Sub(bx, by)) != 0 {
				t.Fatalf("natSubTo(alias minuend) mismatch")
			}
			yc = append(nat(nil), y...)
			got = natSubTo(yc, x, yc)
			if natToBig(got).Cmp(new(big.Int).Sub(bx, by)) != 0 {
				t.Fatalf("natSubTo(alias subtrahend) mismatch")
			}
		}
		w := rng.Uint64() | 1
		xc = append(nat(nil), x...)
		got = natMulWordTo(xc, xc, w)
		want := new(big.Int).Mul(bx, new(big.Int).SetUint64(w))
		if natToBig(got).Cmp(want) != 0 {
			t.Fatalf("natMulWordTo(alias) mismatch")
		}
		s := uint(rng.Intn(200))
		xc = append(nat(nil), x...)
		got = natShlTo(xc, xc, s)
		if natToBig(got).Cmp(new(big.Int).Lsh(bx, s)) != 0 {
			t.Fatalf("natShlTo(alias) mismatch at s=%d", s)
		}
		if w != 0 {
			xc = append(nat(nil), x...)
			q, r := natDivWordTo(xc, xc, w)
			wantQ, wantR := new(big.Int).QuoRem(bx, new(big.Int).SetUint64(w), new(big.Int))
			if natToBig(q).Cmp(wantQ) != 0 || r != wantR.Uint64() {
				t.Fatalf("natDivWordTo(alias) mismatch")
			}
		}
	}
}

// TestAccRandomOps drives an Acc through random operation sequences and
// cross-checks every intermediate state against math/big.
func TestAccRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 100; iter++ {
		acc := NewAcc()
		oracle := new(big.Int)
		steps := 1 + rng.Intn(30)
		for s := 0; s < steps; s++ {
			switch rng.Intn(5) {
			case 0:
				x := Random(rng, 1+rng.Intn(500))
				if rng.Intn(2) == 0 {
					x = x.Neg()
				}
				acc.Add(x)
				oracle.Add(oracle, x.ToBig())
			case 1:
				x := Random(rng, 1+rng.Intn(500))
				acc.Sub(x)
				oracle.Sub(oracle, x.ToBig())
			case 2:
				x := Random(rng, 1+rng.Intn(500))
				c := rng.Int63n(1000) - 500
				acc.AddMul(x, c)
				oracle.Add(oracle, new(big.Int).Mul(x.ToBig(), big.NewInt(c)))
			case 3:
				sh := uint(rng.Intn(100))
				acc.Shl(sh)
				oracle.Lsh(oracle, sh)
			case 4:
				d := int64(1 + rng.Intn(6))
				if rng.Intn(2) == 0 {
					d = -d
				}
				// Make the value divisible first, then divide exactly.
				acc.Take()
				acc.Reset()
				x := Random(rng, 1+rng.Intn(300))
				acc.AddMul(x, d*7)
				acc.DivExact(d)
				oracle.SetInt64(0)
				oracle.Mul(x.ToBig(), big.NewInt(7))
			}
			if got := acc.Value().ToBig(); got.Cmp(oracle) != 0 {
				t.Fatalf("iter %d step %d: acc=%v oracle=%v", iter, s, got, oracle)
			}
		}
		got := acc.Take()
		if got.ToBig().Cmp(oracle) != 0 {
			t.Fatalf("Take mismatch: %v vs %v", got, oracle)
		}
		if !acc.IsZero() {
			t.Fatalf("Take did not reset the accumulator")
		}
		acc.Release()
	}
}

// TestAccDivIfExact checks the non-panicking division: an exact divisor
// divides in place (sign included), and a remainder is reported.
func TestAccDivIfExact(t *testing.T) {
	acc := NewAcc()
	defer acc.Release()
	acc.Add(FromInt64(-42))
	if !acc.DivIfExact(-6) {
		t.Fatal("-42 / -6 reported inexact")
	}
	if v, _ := acc.Value().Int64(); v != 7 {
		t.Fatalf("-42 / -6 = %d, want 7", v)
	}
	if acc.DivIfExact(3) {
		t.Fatal("7 / 3 reported exact")
	}
}

// TestAccDivByUnit checks the ±1 fast path of DivIfExact and DivExact: 1
// leaves the value as it is, −1 only negates it, and zero stays a canonical
// (non-negative) zero.
func TestAccDivByUnit(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, x := range []Int{Random(rng, 700), Random(rng, 64).Neg(), {}} {
		acc := NewAcc()
		acc.Add(x)
		if !acc.DivIfExact(1) || !acc.Value().Equal(x) {
			t.Fatalf("DivIfExact(1) on %v gave %v", x, acc.Value())
		}
		if !acc.DivIfExact(-1) || !acc.Value().Equal(x.Neg()) {
			t.Fatalf("DivIfExact(-1) on %v gave %v", x, acc.Value())
		}
		acc.DivExact(-1)
		got := acc.Take()
		if !got.Equal(x) || (x.IsZero() && got.Sign() != 0) {
			t.Fatalf("DivExact(-1) twice on %v gave %v", x, got)
		}
		acc.Release()
	}
}

// TestAccTakeOwnership verifies that a taken Int is never mutated by later
// use of the same (pooled) accumulator — the immutability contract Int
// promises to the machine simulator.
func TestAccTakeOwnership(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	acc := NewAcc()
	x := Random(rng, 1000)
	acc.Add(x)
	taken := acc.Take()
	snapshot := taken.ToBig()
	for i := 0; i < 50; i++ {
		acc.AddMul(Random(rng, 1200), -77)
		acc.Shl(13)
	}
	if taken.ToBig().Cmp(snapshot) != 0 {
		t.Fatalf("Acc mutated a value it had already handed off")
	}
	acc.Release()
}

// TestNatExtractCrossCheck pins the rewritten single-allocation natExtract
// to the reference semantics: bits [lo, lo+width) of x.
func TestNatExtractCrossCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 300; iter++ {
		x := randNat(rng, rng.Intn(12))
		lo := rng.Intn(800)
		width := rng.Intn(300)
		got := natToBig(natExtract(x, lo, width))
		want := new(big.Int).Rsh(natToBig(x), uint(lo))
		mask := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), uint(max(width, 0))), big.NewInt(1))
		want.And(want, mask)
		if got.Cmp(want) != 0 {
			t.Fatalf("natExtract(%d limbs, lo=%d, width=%d) mismatch", len(x), lo, width)
		}
	}
}
