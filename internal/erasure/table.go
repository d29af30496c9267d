package erasure

import (
	"errors"
	"fmt"

	"repro/internal/bigint"
	"repro/internal/mat"
	"repro/internal/rat"
)

// ErrNonIntegral reports a decode with no integral solution: some surviving
// letter is corrupted. Callers wrap it with %w.
var ErrNonIntegral = errors.New("erasure: non-integral decode (corrupted letters?)")

// Table is the survivor-set decoder behind every recovery in the tree: the
// column code's decode (Definition 2.7, Section 4.1's "one small exact
// solve") and the on-the-fly interpolation from whichever evaluation points
// survive (Section 4.2). For an integer generator G of n rows and width w it
// holds, for every survivor set of w rows, the exact inverse of the square
// minor that set selects, as int64 rows over one common denominator. It is
// built in full at construction and never written afterwards, so any
// number of goroutines may share it without synchronization.
type Table struct {
	n      int
	minors map[string]*Minor // keyed by the survivor bitmask
}

// Minor is one survivor set's inverse: unknown v is Σ_i Rows[v][i]·res_i /
// Den, where res_i is the residual of the i-th surviving non-systematic
// generator row. Callers must not modify it.
type Minor struct {
	Rows [][]int64
	Den  int64
	err  error // instead of Rows/Den when they overflow int64
}

// NewTable builds the table of a generator with no systematic part: every
// w-subset of its rows is a survivor set, and its Minor is the inverse of
// those rows — for a product-evaluation matrix, the interpolation matrix of
// the surviving points. It errors if any such subset is singular; a minor
// whose scaled inverse overflows int64 is reported only when it is used.
func NewTable(gen [][]int64) (*Table, error) { return newTable(gen, 0) }

// newTable builds the table for a generator whose first sys rows are the
// identity (a systematic code). A surviving identity row pins its unknown
// directly, so each stored minor is G restricted to the surviving rows past
// sys and to the unknowns no surviving identity row pins.
func newTable(gen [][]int64, sys int) (*Table, error) {
	n := len(gen)
	if n == 0 || len(gen[0]) > n {
		return nil, fmt.Errorf("erasure: generator needs at least as many rows as columns")
	}
	w := len(gen[0])
	t := &Table{n: n, minors: map[string]*Minor{}}
	// Enumerate the erased complements: n-w rows each, where the survivor
	// sets themselves are as long as the generator is wide.
	for _, gone := range mat.Combinations(n, n-w) {
		pinned := make([]bool, w)
		var surv, rows, cols []int
		for r, g := 0, 0; r < n; r++ {
			switch {
			case g < len(gone) && gone[g] == r:
				g++
				continue
			case r < sys:
				pinned[r] = true
			default:
				rows = append(rows, r)
			}
			surv = append(surv, r)
		}
		for c := range pinned {
			if !pinned[c] {
				cols = append(cols, c)
			}
		}
		a := mat.New(len(rows), len(cols))
		for i, r := range rows {
			for j, c := range cols {
				a.Set(i, j, rat.FromInt64(gen[r][c]))
			}
		}
		inv, err := a.Inverse()
		if err != nil {
			return nil, fmt.Errorf("erasure: survivor set %v selects a singular minor: %w", surv, err)
		}
		m := &Minor{}
		if m.Rows, m.Den, err = inv.ScaledInts(); err != nil {
			m.err = fmt.Errorf("erasure: survivor set %v: %w", surv, err)
		}
		t.minors[t.key(surv)] = m
	}
	return t, nil
}

// key is the survivor set's bitmask over the generator rows.
func (t *Table) key(surv []int) string {
	b := make([]byte, (t.n+7)/8)
	for _, r := range surv {
		b[r/8] |= 1 << (r % 8)
	}
	return string(b)
}

// Minor returns the inverse for a survivor set of generator rows, which
// must be ascending: the residuals passed to Apply follow that order.
func (t *Table) Minor(surv []int) (*Minor, error) {
	for i, r := range surv {
		if r < 0 || r >= t.n || (i > 0 && r <= surv[i-1]) {
			return nil, fmt.Errorf("erasure: survivor set %v is not an ascending subset of %d rows", surv, t.n)
		}
	}
	m, ok := t.minors[t.key(surv)]
	switch {
	case !ok:
		return nil, fmt.Errorf("erasure: survivor set %v does not select a square minor", surv)
	case m.err != nil:
		return nil, m.err
	}
	return m, nil
}

// DenLCM returns the least common multiple of every minor's denominator: a
// common scale at which results decoded from different survivor sets can be
// combined before one final division. It folds over the table on each call
// and errors if a minor or the lcm overflows int64.
func (t *Table) DenLCM() (int64, error) {
	l := int64(1)
	for _, m := range t.minors {
		if m.err != nil {
			return 0, m.err
		}
		if l = mat.LCM64(l, m.Den); l == 0 {
			return 0, fmt.Errorf("erasure: denominator lcm overflows int64")
		}
	}
	return l, nil
}

// Apply solves for the unknowns from the survivors' residual letters, all
// of one width, writing unknown v into dst[v] (of that width, caller
// allocated): dst[v][t] = Σ_i Rows[v][i]·res[i][t] / Den, exactly. It
// returns ErrNonIntegral when a quotient leaves a remainder.
func (m *Minor) Apply(dst, res [][]bigint.Int) error {
	if len(res) != len(m.Rows) || len(dst) != len(m.Rows) {
		return fmt.Errorf("erasure: minor of order %d applied to %d letters into %d", len(m.Rows), len(res), len(dst))
	}
	for i := range res {
		if len(res[i]) != len(res[0]) || len(dst[i]) != len(res[0]) {
			return fmt.Errorf("erasure: ragged letter %d", i)
		}
	}
	acc := bigint.NewAcc()
	defer acc.Release()
	for v, row := range m.Rows {
		for t := range dst[v] {
			for i, c := range row {
				acc.AddMul(res[i][t], c)
			}
			if !acc.DivIfExact(m.Den) {
				return ErrNonIntegral
			}
			dst[v][t] = acc.Take()
		}
	}
	return nil
}
