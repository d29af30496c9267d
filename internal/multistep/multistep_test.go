package multistep

import (
	"math/big"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/bigint"
)

func randOperand(rng *rand.Rand, bits int) bigint.Int {
	x := bigint.Random(rng, bits)
	if rng.Intn(2) == 0 {
		x = x.Neg()
	}
	return x
}

func TestNewValidation(t *testing.T) {
	if _, err := New(1, 2, 0); err == nil {
		t.Error("k=1 should fail")
	}
	if _, err := New(2, 0, 0); err == nil {
		t.Error("l=0 should fail")
	}
	if _, err := New(2, 2, -1); err == nil {
		t.Error("negative f should fail")
	}
}

func TestPointCounts(t *testing.T) {
	alg, err := New(2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if alg.NumProducts() != 9+2 {
		t.Errorf("products = %d, want 11", alg.NumProducts())
	}
	if alg.Need() != 9 {
		t.Errorf("need = %d, want 9", alg.Need())
	}
}

func TestGeneralPosition(t *testing.T) {
	// The Section 6.2 heuristic must deliver a set in (2k-1, l)-general
	// position — the validity condition of Section 6.1.
	for _, c := range []struct{ k, l, f int }{{2, 1, 2}, {2, 2, 1}, {2, 2, 2}} {
		alg, err := New(c.k, c.l, c.f)
		if err != nil {
			t.Fatalf("k=%d l=%d f=%d: %v", c.k, c.l, c.f, err)
		}
		if !alg.GeneralPosition() {
			t.Errorf("k=%d l=%d f=%d: extended set not in general position", c.k, c.l, c.f)
		}
	}
}

func TestMulMatchesBig(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	for _, c := range []struct{ k, l, f int }{{2, 1, 0}, {2, 2, 0}, {2, 2, 2}, {3, 1, 2}} {
		alg, err := New(c.k, c.l, c.f)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 15; trial++ {
			a := randOperand(rng, 4096)
			b := randOperand(rng, 4096)
			got, err := alg.Mul(a, b)
			if err != nil {
				t.Fatal(err)
			}
			want := new(big.Int).Mul(a.ToBig(), b.ToBig())
			if got.ToBig().Cmp(want) != 0 {
				t.Fatalf("k=%d l=%d f=%d: product mismatch", c.k, c.l, c.f)
			}
		}
	}
}

func TestMulWithErasuresAllSingles(t *testing.T) {
	// Every single-product erasure must be recoverable: the heart of the
	// Figure 3 / Section 4.3 construction.
	rng := rand.New(rand.NewSource(112))
	alg, err := New(2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, b := randOperand(rng, 2048), randOperand(rng, 2048)
	want := new(big.Int).Mul(a.ToBig(), b.ToBig())
	for d := 0; d < alg.NumProducts(); d++ {
		got, err := alg.MulWithErasures(a, b, []int{d})
		if err != nil {
			t.Fatalf("erasure %d: %v", d, err)
		}
		if got.ToBig().Cmp(want) != 0 {
			t.Fatalf("erasure %d: wrong product", d)
		}
	}
}

func TestMulWithErasuresPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	alg, err := New(2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	a, b := randOperand(rng, 1024), randOperand(rng, 1024)
	want := new(big.Int).Mul(a.ToBig(), b.ToBig())
	n := alg.NumProducts()
	for d1 := 0; d1 < n; d1 += 3 {
		for d2 := d1 + 1; d2 < n; d2 += 4 {
			got, err := alg.MulWithErasures(a, b, []int{d1, d2})
			if err != nil {
				t.Fatalf("erasures (%d,%d): %v", d1, d2, err)
			}
			if got.ToBig().Cmp(want) != 0 {
				t.Fatalf("erasures (%d,%d): wrong product", d1, d2)
			}
		}
	}
}

func TestErasureValidation(t *testing.T) {
	alg, _ := New(2, 1, 1)
	a, b := bigint.FromInt64(12345), bigint.FromInt64(67890)
	if _, err := alg.MulWithErasures(a, b, []int{0, 1}); err == nil {
		t.Error("too many erasures should fail")
	}
	if _, err := alg.MulWithErasures(a, b, []int{99}); err == nil {
		t.Error("out-of-range erasure should fail")
	}
	if _, err := alg.MulWithErasures(a, b, []int{1, 1}); err != nil {
		// duplicate exceeds f=1 anyway; check explicit duplicate error with f=2
	}
	alg2, _ := New(2, 1, 2)
	if _, err := alg2.MulWithErasures(a, b, []int{1, 1}); err == nil {
		t.Error("duplicate erasures should fail")
	}
}

func TestZeroOperands(t *testing.T) {
	alg, _ := New(2, 2, 1)
	got, err := alg.Mul(bigint.Zero(), bigint.FromInt64(42))
	if err != nil {
		t.Fatal(err)
	}
	if !got.IsZero() {
		t.Errorf("0·42 = %v", got)
	}
}

func TestProcessorsPerFault(t *testing.T) {
	// The Figure 3 arithmetic: P=27, k=2 — one merged step needs 9 procs
	// per fault, two need 3, three need 1 (the paper's best case: f total).
	if got := ProcessorsPerFault(27, 2, 1); got != 9 {
		t.Errorf("l=1: %d", got)
	}
	if got := ProcessorsPerFault(27, 2, 2); got != 3 {
		t.Errorf("l=2: %d", got)
	}
	if got := ProcessorsPerFault(27, 2, 3); got != 1 {
		t.Errorf("l=3: %d", got)
	}
}

// TestMulWithErasuresConcurrent shares one algorithm between goroutines
// erasing different products: interpolation reads an immutable table, so
// concurrent multiplications must be race-free and exact.
func TestMulWithErasuresConcurrent(t *testing.T) {
	alg, err := New(2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(114))
	a, b := randOperand(rng, 512), randOperand(rng, 512)
	want := new(big.Int).Mul(a.ToBig(), b.ToBig())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			dead := []int{g, (g + 3) % alg.NumProducts()}
			got, err := alg.MulWithErasures(a, b, dead)
			if err != nil {
				t.Errorf("erasures %v: %v", dead, err)
				return
			}
			if got.ToBig().Cmp(want) != 0 {
				t.Errorf("erasures %v: wrong product", dead)
			}
		}(g)
	}
	wg.Wait()
}
