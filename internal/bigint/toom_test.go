package bigint

import (
	"math/big"
	"math/rand"
	"testing"
)

// allOnesNat returns 2^(64n) − 1: every limb all ones, the longest carry
// chain an addition can start.
func allOnesNat(n int) nat {
	z := make(nat, n)
	for i := range z {
		z[i] = ^uint64(0)
	}
	return z
}

// TestNatAddShiftedTo checks the Toom recomposition step z + x·2^s against
// math/big: every offset from 0 to 130 bits (word-aligned ones included),
// all-ones operands whose carry runs through the top of z and out of it,
// and destinations with and without spare capacity.
func TestNatAddShiftedTo(t *testing.T) {
	rng := rand.New(rand.NewSource(151))
	type pair struct {
		name string
		z, x nat
	}
	pairs := []pair{
		{"empty-z", nil, randNat(rng, 3)},
		{"empty-x", randNat(rng, 3), nil},
		{"short-z", randNat(rng, 1), randNat(rng, 4)},
		{"long-z", randNat(rng, 6), randNat(rng, 2)},
		{"all-ones", allOnesNat(5), allOnesNat(3)},
		{"all-ones-long-x", allOnesNat(2), allOnesNat(4)},
	}
	for _, pr := range pairs {
		for s := uint(0); s <= 130; s++ {
			want := new(big.Int).Lsh(natToBig(pr.x), s)
			want.Add(want, natToBig(pr.z))
			for _, spare := range []int{0, 8} {
				z := make(nat, len(pr.z), len(pr.z)+spare)
				copy(z, pr.z)
				if got := natAddShiftedTo(z, pr.x, s); natToBig(got).Cmp(want) != 0 || len(got) != len(got.norm()) {
					t.Fatalf("%s, s=%d, spare=%d: got %x, want %x", pr.name, s, spare, natToBig(got), want)
				}
			}
		}
	}
}

// TestNatMulWordLen checks the exact length of x·w, the interpolation
// charge of a unit row, against the product itself, including top limbs
// within w−1 of the word boundary where only the lower limbs' carry
// decides.
func TestNatMulWordLen(t *testing.T) {
	rng := rand.New(rand.NewSource(152))
	for _, w := range []uint64{1, 2, 6, 120, 1 << 63, ^uint64(0)} {
		xs := []nat{nil, randNat(rng, 1), randNat(rng, 4), allOnesNat(3)}
		// Top limb just below ⌈2^64/w⌉: the product's top word lands within
		// w−1 of overflowing.
		if w > 1 {
			top := ^uint64(0)/w + 1
			for _, low := range []uint64{0, 1, ^uint64(0)} {
				xs = append(xs, nat{low, low, top - 1}, nat{low, top})
			}
		}
		for _, x := range xs {
			var tmp nat
			if got, want := natMulWordLen(x, w), len(natMulWordTo(tmp, x, w)); got != want {
				t.Errorf("natMulWordLen(%x, %d) = %d, want %d", natToBig(x), w, got, want)
			}
		}
	}
}
