package mat

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/rat"
)

func randMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.Set(i, j, rat.NewInt64(rng.Int63n(41)-20, rng.Int63n(5)+1))
		}
	}
	return m
}

func TestIdentity(t *testing.T) {
	id := Identity(4)
	m := randMatrix(rand.New(rand.NewSource(1)), 4, 4)
	if !id.Mul(m).Equal(m) || !m.Mul(id).Equal(m) {
		t.Fatal("identity is not multiplicative identity")
	}
}

func TestInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	found := 0
	for found < 30 {
		n := 1 + rng.Intn(6)
		m := randMatrix(rng, n, n)
		inv, err := m.Inverse()
		if err != nil {
			continue // singular sample; skip
		}
		found++
		if !m.Mul(inv).Equal(Identity(n)) || !inv.Mul(m).Equal(Identity(n)) {
			t.Fatalf("A·A⁻¹ != I for\n%v", m)
		}
	}
}

func TestInverseSingular(t *testing.T) {
	m := FromInt64s(2, 2, []int64{1, 2, 2, 4})
	if _, err := m.Inverse(); err == nil {
		t.Fatal("expected error inverting singular matrix")
	}
	if _, err := New(2, 3).Inverse(); err == nil {
		t.Fatal("expected error inverting non-square matrix")
	}
}

func TestDet(t *testing.T) {
	cases := []struct {
		rows, cols int
		vals       []int64
		want       int64
	}{
		{1, 1, []int64{7}, 7},
		{2, 2, []int64{1, 2, 3, 4}, -2},
		{3, 3, []int64{2, 0, 0, 0, 3, 0, 0, 0, 5}, 30},
		{3, 3, []int64{1, 2, 3, 4, 5, 6, 7, 8, 9}, 0},
	}
	for _, c := range cases {
		m := FromInt64s(c.rows, c.cols, c.vals)
		if got := m.Det(); !got.Equal(rat.FromInt64(c.want)) {
			t.Errorf("Det(%v) = %v, want %d", c.vals, got, c.want)
		}
	}
}

func TestDetMultiplicative(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cfg := &quick.Config{MaxCount: 40}
	f := func(int) bool {
		n := 1 + rng.Intn(4)
		a, b := randMatrix(rng, n, n), randMatrix(rng, n, n)
		return a.Mul(b).Det().Equal(a.Det().Mul(b.Det()))
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error("det(AB) != det(A)det(B):", err)
	}
}

func TestRankAndInjectivity(t *testing.T) {
	m := FromInt64s(3, 2, []int64{1, 0, 0, 1, 1, 1})
	if got := m.Rank(); got != 2 {
		t.Errorf("Rank = %d, want 2", got)
	}
	if !m.IsInjective() {
		t.Error("tall full-column-rank matrix should be injective")
	}
	deg := FromInt64s(3, 2, []int64{1, 2, 2, 4, 3, 6})
	if deg.IsInjective() {
		t.Error("rank-1 matrix should not be injective")
	}
	if got := New(3, 3).Rank(); got != 0 {
		t.Errorf("Rank(zero) = %d", got)
	}
}

func TestTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := randMatrix(rng, 3, 5)
	tt := m.Transpose().Transpose()
	if !tt.Equal(m) {
		t.Fatal("double transpose changed the matrix")
	}
	mt := m.Transpose()
	for i := 0; i < m.Rows(); i++ {
		for j := 0; j < m.Cols(); j++ {
			if !m.At(i, j).Equal(mt.At(j, i)) {
				t.Fatalf("transpose wrong at (%d,%d)", i, j)
			}
		}
	}
}

func TestSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; {
		n := 1 + rng.Intn(5)
		m := randMatrix(rng, n, n)
		if m.Det().IsZero() {
			continue
		}
		trial++
		x := make([]rat.Rat, n)
		for i := range x {
			x[i] = rat.NewInt64(rng.Int63n(21)-10, rng.Int63n(4)+1)
		}
		b := m.ApplyRat(x)
		got, err := m.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if !got[i].Equal(x[i]) {
				t.Fatalf("Solve returned wrong x at %d", i)
			}
		}
	}
}

func TestScaledInts(t *testing.T) {
	m := New(2, 2)
	m.Set(0, 0, rat.NewInt64(1, 2))
	m.Set(0, 1, rat.NewInt64(-2, 3))
	m.Set(1, 1, rat.FromInt64(5))
	rows, den, err := m.ScaledInts()
	if err != nil {
		t.Fatal(err)
	}
	if den != 6 {
		t.Fatalf("den = %d, want 6", den)
	}
	want := [][]int64{{3, -4}, {0, 30}}
	for i := range want {
		for j := range want[i] {
			if rows[i][j] != want[i][j] {
				t.Errorf("rows[%d][%d] = %d, want %d", i, j, rows[i][j], want[i][j])
			}
		}
	}
	huge := New(1, 2)
	huge.Set(0, 0, rat.NewInt64(1, 1<<40))
	huge.Set(0, 1, rat.NewInt64(1, 1<<40-1))
	if _, _, err := huge.ScaledInts(); err == nil {
		t.Fatal("common denominator overflow not reported")
	}
}

func TestSelectRows(t *testing.T) {
	m := FromInt64s(4, 2, []int64{0, 1, 10, 11, 20, 21, 30, 31})
	s := m.SelectRows([]int{3, 1})
	want := FromInt64s(2, 2, []int64{30, 31, 10, 11})
	if !s.Equal(want) {
		t.Fatalf("SelectRows = \n%v want \n%v", s, want)
	}
}

func TestVandermondeInvertibility(t *testing.T) {
	// Distinct nodes => any square Vandermonde is invertible.
	nodes := []rat.Rat{rat.FromInt64(1), rat.FromInt64(2), rat.FromInt64(3), rat.FromInt64(5)}
	v := Vandermonde(nodes, 4)
	if v.Det().IsZero() {
		t.Fatal("Vandermonde with distinct nodes is singular")
	}
	// Repeated nodes => singular.
	bad := Vandermonde([]rat.Rat{rat.FromInt64(2), rat.FromInt64(2)}, 2)
	if !bad.Det().IsZero() {
		t.Fatal("Vandermonde with repeated nodes should be singular")
	}
}

func TestAllMinorsInvertible(t *testing.T) {
	// Vandermonde over positive distinct nodes is totally positive => MDS.
	nodes := []rat.Rat{rat.FromInt64(1), rat.FromInt64(2), rat.FromInt64(3)}
	e := Vandermonde(nodes, 4)
	if !AllMinorsInvertible(e) {
		t.Fatal("positive Vandermonde should have all minors invertible")
	}
	// A matrix with a zero entry has a singular 1x1 minor.
	z := FromInt64s(2, 2, []int64{1, 0, 1, 1})
	if AllMinorsInvertible(z) {
		t.Fatal("matrix with zero entry cannot be MDS")
	}
}

func TestCombinations(t *testing.T) {
	cs := Combinations(4, 2)
	if len(cs) != 6 {
		t.Fatalf("C(4,2) = %d, want 6", len(cs))
	}
	seen := map[[2]int]bool{}
	for _, c := range cs {
		if len(c) != 2 || c[0] >= c[1] {
			t.Fatalf("bad combination %v", c)
		}
		seen[[2]int{c[0], c[1]}] = true
	}
	if len(seen) != 6 {
		t.Fatal("duplicate combinations")
	}
}

func TestMulShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	New(2, 3).Mul(New(2, 3))
}

func TestNullspace(t *testing.T) {
	// Rank-1 matrix: kernel dimension 2.
	m := FromInt64s(3, 3, []int64{1, 2, 3, 2, 4, 6, 3, 6, 9})
	basis := m.Nullspace()
	if len(basis) != 2 {
		t.Fatalf("kernel dimension = %d, want 2", len(basis))
	}
	for _, v := range basis {
		img := m.ApplyRat(v)
		for i, x := range img {
			if !x.IsZero() {
				t.Fatalf("basis vector not in kernel at row %d", i)
			}
		}
	}
	// Invertible matrix: trivial kernel.
	if got := Identity(4).Nullspace(); len(got) != 0 {
		t.Fatalf("identity kernel dimension = %d", len(got))
	}
	// Wide matrix: kernel at least cols-rows.
	wide := FromInt64s(1, 3, []int64{1, 1, 1})
	if got := wide.Nullspace(); len(got) != 2 {
		t.Fatalf("wide kernel dimension = %d, want 2", len(got))
	}
}
