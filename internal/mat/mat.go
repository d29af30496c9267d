// Package mat implements dense matrices over exact rationals (internal/rat).
//
// These matrices drive the linear algebra behind the paper: Toom-Cook
// evaluation matrices (U, V), the interpolation matrix (W^T = inverse of the
// product-polynomial evaluation matrix), systematic Vandermonde erasure-code
// generators, and the injectivity/general-position checks of Section 6.
// Everything is exact; there is no floating point anywhere.
package mat

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/rat"
)

// Matrix is a dense rows×cols matrix over the rationals. The zero Matrix is
// the empty 0×0 matrix. Matrices are mutable; use Clone before destructive
// operations when the original is still needed.
type Matrix struct {
	rows, cols int
	a          []rat.Rat // row-major
}

// New returns a zero-filled rows×cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("mat: negative dimension")
	}
	return &Matrix{rows: rows, cols: cols, a: make([]rat.Rat, rows*cols)}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, rat.One())
	}
	return m
}

// FromInt64s builds a matrix from a row-major slice of small integers.
func FromInt64s(rows, cols int, vals []int64) *Matrix {
	if len(vals) != rows*cols {
		panic("mat: FromInt64s size mismatch")
	}
	m := New(rows, cols)
	for i, v := range vals {
		m.a[i] = rat.FromInt64(v)
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) rat.Rat {
	m.check(i, j)
	return m.a[i*m.cols+j]
}

// Set assigns the element at (i, j).
func (m *Matrix) Set(i, j int, v rat.Rat) {
	m.check(i, j)
	m.a[i*m.cols+j] = v
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range %dx%d", i, j, m.rows, m.cols))
	}
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	z := New(m.rows, m.cols)
	copy(z.a, m.a)
	return z
}

// Equal reports whether m and n have the same shape and entries.
func (m *Matrix) Equal(n *Matrix) bool {
	if m.rows != n.rows || m.cols != n.cols {
		return false
	}
	for i := range m.a {
		if !m.a[i].Equal(n.a[i]) {
			return false
		}
	}
	return true
}

// Mul returns the matrix product m·n.
func (m *Matrix) Mul(n *Matrix) *Matrix {
	if m.cols != n.rows {
		panic(fmt.Sprintf("mat: Mul shape mismatch %dx%d · %dx%d", m.rows, m.cols, n.rows, n.cols))
	}
	z := New(m.rows, n.cols)
	for i := 0; i < m.rows; i++ {
		for k := 0; k < m.cols; k++ {
			mik := m.a[i*m.cols+k]
			if mik.IsZero() {
				continue
			}
			for j := 0; j < n.cols; j++ {
				z.a[i*n.cols+j] = z.a[i*n.cols+j].Add(mik.Mul(n.a[k*n.cols+j]))
			}
		}
	}
	return z
}

// Transpose returns mᵀ.
func (m *Matrix) Transpose() *Matrix {
	z := New(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			z.a[j*m.rows+i] = m.a[i*m.cols+j]
		}
	}
	return z
}

// SelectRows returns the submatrix consisting of the given rows, in order.
func (m *Matrix) SelectRows(rows []int) *Matrix {
	z := New(len(rows), m.cols)
	for zi, i := range rows {
		if i < 0 || i >= m.rows {
			panic("mat: SelectRows index out of range")
		}
		copy(z.a[zi*m.cols:(zi+1)*m.cols], m.a[i*m.cols:(i+1)*m.cols])
	}
	return z
}

// Inverse returns m⁻¹ via Gauss-Jordan elimination with exact arithmetic,
// or an error if m is singular or non-square.
func (m *Matrix) Inverse() (*Matrix, error) {
	if m.rows != m.cols {
		return nil, fmt.Errorf("mat: inverse of non-square %dx%d matrix", m.rows, m.cols)
	}
	n := m.rows
	a := m.Clone()
	inv := Identity(n)
	for col := 0; col < n; col++ {
		// Find a pivot.
		pivot := -1
		for r := col; r < n; r++ {
			if !a.At(r, col).IsZero() {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return nil, fmt.Errorf("mat: singular matrix (no pivot in column %d)", col)
		}
		a.swapRows(col, pivot)
		inv.swapRows(col, pivot)
		// Scale pivot row to 1.
		scale := a.At(col, col).Inv()
		a.scaleRow(col, scale)
		inv.scaleRow(col, scale)
		// Eliminate all other rows.
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			factor := a.At(r, col)
			if factor.IsZero() {
				continue
			}
			a.addScaledRow(r, col, factor.Neg())
			inv.addScaledRow(r, col, factor.Neg())
		}
	}
	return inv, nil
}

// Det returns the determinant of a square matrix (fraction-based Gaussian
// elimination; exact).
func (m *Matrix) Det() rat.Rat {
	if m.rows != m.cols {
		panic("mat: Det of non-square matrix")
	}
	n := m.rows
	a := m.Clone()
	det := rat.One()
	for col := 0; col < n; col++ {
		pivot := -1
		for r := col; r < n; r++ {
			if !a.At(r, col).IsZero() {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return rat.Zero()
		}
		if pivot != col {
			a.swapRows(col, pivot)
			det = det.Neg()
		}
		p := a.At(col, col)
		det = det.Mul(p)
		inv := p.Inv()
		for r := col + 1; r < n; r++ {
			f := a.At(r, col)
			if f.IsZero() {
				continue
			}
			a.addScaledRow(r, col, f.Mul(inv).Neg())
		}
	}
	return det
}

// Rank returns the rank of m.
func (m *Matrix) Rank() int {
	a := m.Clone()
	rank := 0
	for col := 0; col < a.cols && rank < a.rows; col++ {
		pivot := -1
		for r := rank; r < a.rows; r++ {
			if !a.At(r, col).IsZero() {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			continue
		}
		a.swapRows(rank, pivot)
		inv := a.At(rank, col).Inv()
		for r := rank + 1; r < a.rows; r++ {
			f := a.At(r, col)
			if f.IsZero() {
				continue
			}
			a.addScaledRow(r, col, f.Mul(inv).Neg())
		}
		rank++
	}
	return rank
}

// IsInjective reports whether m, viewed as a linear map from cols-space to
// rows-space, is injective (full column rank). This is the validity test the
// paper applies to evaluation matrices (Claims 2.2 and 6.1).
func (m *Matrix) IsInjective() bool { return m.Rank() == m.cols }

// Solve returns the unique x with m·x = b for square invertible m, where b is
// a column vector given as a slice. It errors if m is singular.
func (m *Matrix) Solve(b []rat.Rat) ([]rat.Rat, error) {
	if m.rows != m.cols || m.rows != len(b) {
		return nil, fmt.Errorf("mat: Solve shape mismatch")
	}
	inv, err := m.Inverse()
	if err != nil {
		return nil, err
	}
	return inv.ApplyRat(b), nil
}

// ApplyRat returns m·x for a rational column vector x.
func (m *Matrix) ApplyRat(x []rat.Rat) []rat.Rat {
	if len(x) != m.cols {
		panic("mat: ApplyRat length mismatch")
	}
	z := make([]rat.Rat, m.rows)
	for i := 0; i < m.rows; i++ {
		acc := rat.Zero()
		for j := 0; j < m.cols; j++ {
			mij := m.a[i*m.cols+j]
			if mij.IsZero() {
				continue
			}
			acc = acc.Add(mij.Mul(x[j]))
		}
		z[i] = acc
	}
	return z
}

// ScaledInts returns m in scaled-integer form: int64 rows and the least
// common denominator d of its entries, with m = rows/d. Rational
// interpolation and decoding matrices are applied this way, with one exact
// division by d after the integer combination.
func (m *Matrix) ScaledInts() ([][]int64, int64, error) {
	den := int64(1)
	for _, v := range m.a {
		dv, ok := v.Den().Int64()
		if ok {
			den = LCM64(den, dv)
		}
		if !ok || den == 0 {
			return nil, 0, fmt.Errorf("mat: common denominator overflows int64")
		}
	}
	rows := make([][]int64, m.rows)
	for i := range rows {
		rows[i] = make([]int64, m.cols)
		for j := range rows[i] {
			v := m.At(i, j)
			dv, _ := v.Den().Int64()
			n, ok := v.Num().MulInt64(den / dv).Int64()
			if !ok {
				return nil, 0, fmt.Errorf("mat: scaled entry (%d,%d) overflows int64", i, j)
			}
			rows[i][j] = n
		}
	}
	return rows, den, nil
}

// LCM64 returns lcm(a, b) of positive a and b, or 0 if it overflows int64.
func LCM64(a, b int64) int64 {
	x, y := a, b
	for y != 0 {
		x, y = y, x%y
	}
	if q := a / x; q <= math.MaxInt64/b {
		return q * b
	}
	return 0
}

// String renders the matrix for debugging and for the figure harness.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.rows; i++ {
		b.WriteByte('[')
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(m.At(i, j).String())
		}
		b.WriteString("]\n")
	}
	return b.String()
}

func (m *Matrix) swapRows(i, j int) {
	if i == j {
		return
	}
	for c := 0; c < m.cols; c++ {
		m.a[i*m.cols+c], m.a[j*m.cols+c] = m.a[j*m.cols+c], m.a[i*m.cols+c]
	}
}

func (m *Matrix) scaleRow(i int, f rat.Rat) {
	for c := 0; c < m.cols; c++ {
		m.a[i*m.cols+c] = m.a[i*m.cols+c].Mul(f)
	}
}

// addScaledRow adds f·row[src] to row[dst].
func (m *Matrix) addScaledRow(dst, src int, f rat.Rat) {
	for c := 0; c < m.cols; c++ {
		m.a[dst*m.cols+c] = m.a[dst*m.cols+c].Add(f.Mul(m.a[src*m.cols+c]))
	}
}

// Nullspace returns a basis of ker(m) as column vectors (each of length
// Cols). The empty slice means the kernel is trivial. Computed by
// Gauss-Jordan reduction over ℚ.
func (m *Matrix) Nullspace() [][]rat.Rat {
	a := m.Clone()
	rows, cols := a.rows, a.cols
	pivotCol := make([]int, 0, rows) // pivot column per pivot row
	r := 0
	for c := 0; c < cols && r < rows; c++ {
		pivot := -1
		for i := r; i < rows; i++ {
			if !a.At(i, c).IsZero() {
				pivot = i
				break
			}
		}
		if pivot < 0 {
			continue
		}
		a.swapRows(r, pivot)
		a.scaleRow(r, a.At(r, c).Inv())
		for i := 0; i < rows; i++ {
			if i == r {
				continue
			}
			f := a.At(i, c)
			if f.IsZero() {
				continue
			}
			a.addScaledRow(i, r, f.Neg())
		}
		pivotCol = append(pivotCol, c)
		r++
	}
	isPivot := make([]bool, cols)
	for _, c := range pivotCol {
		isPivot[c] = true
	}
	var basis [][]rat.Rat
	for free := 0; free < cols; free++ {
		if isPivot[free] {
			continue
		}
		v := make([]rat.Rat, cols)
		v[free] = rat.One()
		for pr, pc := range pivotCol {
			v[pc] = a.At(pr, free).Neg()
		}
		basis = append(basis, v)
	}
	return basis
}

// Vandermonde returns the f×w Vandermonde matrix with rows (1, η, η², …) for
// the given distinct nodes η — the matrix E of the paper's systematic
// erasure code (Section 2.5).
func Vandermonde(nodes []rat.Rat, width int) *Matrix {
	m := New(len(nodes), width)
	for i, eta := range nodes {
		for j := 0; j < width; j++ {
			m.Set(i, j, eta.Pow(j))
		}
	}
	return m
}

// AllMinorsInvertible reports whether every square submatrix of m (every
// minor, all sizes) is invertible — the MDS property required of the
// systematic part E of an erasure-code generator (Definition 2.7). It is
// exponential in min(rows, cols) and intended for the small code shapes used
// in tests and setup.
func AllMinorsInvertible(m *Matrix) bool {
	rmax := m.rows
	cmax := m.cols
	size := rmax
	if cmax < size {
		size = cmax
	}
	for s := 1; s <= size; s++ {
		rowSets := Combinations(rmax, s)
		colSets := Combinations(cmax, s)
		for _, rs := range rowSets {
			for _, cs := range colSets {
				sub := New(s, s)
				for i, ri := range rs {
					for j, cj := range cs {
						sub.Set(i, j, m.At(ri, cj))
					}
				}
				if sub.Det().IsZero() {
					return false
				}
			}
		}
	}
	return true
}

// Combinations enumerates all size-s subsets of {0, …, n-1}, each ascending,
// in lexicographic order.
func Combinations(n, s int) [][]int {
	var out [][]int
	idx := make([]int, s)
	var rec func(start, pos int)
	rec = func(start, pos int) {
		if pos == s {
			c := make([]int, s)
			copy(c, idx)
			out = append(out, c)
			return
		}
		for i := start; i <= n-(s-pos); i++ {
			idx[pos] = i
			rec(i+1, pos+1)
		}
	}
	rec(0, 0)
	return out
}
