// Package erasure implements the systematic (n, k, d) linear erasure codes
// of Section 2.5 of the paper, with Vandermonde redundancy rows.
//
// The fault-tolerant Toom-Cook algorithm (Section 4.1) encodes the data held
// by the P/(2k-1) processors of each grid column onto f code processors in
// the same column, using a (P/(2k-1)+f, P/(2k-1), f+1) code: code processor
// i holds the weighted sum Σ_l η_i^l · data_l. Because the weights form a
// Vandermonde matrix (every minor invertible), any f erasures can be decoded
// by one small exact solve, whose solution is integral. The solve applies a
// precomputed inverse from the code's decoder Table (table.go), the same
// survivor-set decoder the interpolation paths use.
//
// Code words here are vectors of big integers: each "letter" is one
// processor's local share of an operand, and the linear combination is taken
// element-wise.
package erasure

import (
	"fmt"

	"repro/internal/bigint"
	"repro/internal/mat"
	"repro/internal/rat"
)

// Code is a systematic (K+F, K, F+1) erasure code over integer vectors.
// The generator is (I_K ; E) with E the F×K Vandermonde matrix on the nodes
// η_0 … η_{F-1} (Definition 2.7). The zero value is not usable; construct
// with New.
type Code struct {
	K, F  int
	nodes []int64   // η_i, pairwise distinct
	e     [][]int64 // F×K redundancy matrix, e[i][l] = η_i^l
	table *Table    // decoding minors of (I_K ; E), keyed by survivor set
}

// New returns the systematic code with k data letters and f redundancy
// letters, using nodes η_i = i+1 (distinct positive integers keep every
// Vandermonde minor invertible).
func New(k, f int) (*Code, error) {
	if k < 1 {
		return nil, fmt.Errorf("erasure: need k >= 1 data letters, got %d", k)
	}
	if f < 0 {
		return nil, fmt.Errorf("erasure: negative redundancy %d", f)
	}
	nodes := make([]int64, f)
	for i := range nodes {
		nodes[i] = int64(i + 1)
	}
	return NewWithNodes(k, nodes)
}

// NewWithNodes builds the code from explicit Vandermonde nodes. Distinct
// nodes are not enough: every square minor of E must be invertible (with
// nodes {1, −1}, letters 0 and 2 get equal weights), so it rejects any node
// set whose decoder table would hold a singular minor.
func NewWithNodes(k int, nodes []int64) (*Code, error) {
	if k < 1 {
		return nil, fmt.Errorf("erasure: need k >= 1 data letters, got %d", k)
	}
	gen := make([][]int64, k, k+len(nodes))
	for l := range gen {
		gen[l] = make([]int64, k)
		gen[l][l] = 1
	}
	for _, eta := range nodes {
		row := make([]int64, k)
		v := int64(1)
		for l := 0; l < k; l++ {
			row[l] = v
			if l+1 < k {
				next := v * eta
				if eta != 0 && next/eta != v {
					return nil, fmt.Errorf("erasure: node %d overflows int64 at power %d", eta, l+1)
				}
				v = next
			}
		}
		gen = append(gen, row)
	}
	table, err := newTable(gen, k)
	if err != nil {
		return nil, fmt.Errorf("erasure: nodes %v do not give an MDS code: %w", nodes, err)
	}
	return &Code{K: k, F: len(nodes), nodes: append([]int64(nil), nodes...), e: gen[k:], table: table}, nil
}

// N returns the code length K+F.
func (c *Code) N() int { return c.K + c.F }

// Distance returns the code distance F+1 (any F erasures are recoverable).
func (c *Code) Distance() int { return c.F + 1 }

// Nodes returns a copy of the Vandermonde nodes.
func (c *Code) Nodes() []int64 { return append([]int64(nil), c.nodes...) }

// RedundancyRow returns code row i as weights over the K data letters:
// redundancy letter i = Σ_l row[l]·data[l]. The fault-tolerant algorithm
// uses these weights directly when a code processor accumulates its column's
// reduce (Section 4.1, "Code creation").
func (c *Code) RedundancyRow(i int) []int64 {
	return append([]int64(nil), c.e[i]...)
}

// Encode returns the F redundancy letters for a data word of K letters,
// each letter being a vector of big integers combined element-wise.
func (c *Code) Encode(data [][]bigint.Int) ([][]bigint.Int, error) {
	if len(data) != c.K {
		return nil, fmt.Errorf("erasure: Encode wants %d letters, got %d", c.K, len(data))
	}
	width := len(data[0])
	for _, d := range data {
		if len(d) != width {
			return nil, fmt.Errorf("erasure: ragged data letters")
		}
	}
	out := make([][]bigint.Int, c.F)
	for i := 0; i < c.F; i++ {
		letter := make([]bigint.Int, width)
		for l := 0; l < c.K; l++ {
			w := c.e[i][l]
			if w == 0 {
				continue
			}
			for j := 0; j < width; j++ {
				if data[l][j].IsZero() {
					continue
				}
				letter[j] = letter[j].Add(data[l][j].MulInt64(w))
			}
		}
		out[i] = letter
	}
	return out, nil
}

// Minor returns the decoding minor that restores the erased data letters
// from the given redundancy rows (both ascending, equal in number): unknown
// v is letter erased[v], and residual i is redundancy letter rows[i] minus
// the intact data letters' share of it.
func (c *Code) Minor(rows, erased []int) (*Minor, error) {
	surv := make([]int, 0, c.K)
	for l, e := 0, 0; l < c.K; l++ {
		if e < len(erased) && erased[e] == l {
			e++
			continue
		}
		surv = append(surv, l)
	}
	for _, r := range rows {
		surv = append(surv, c.K+r)
	}
	return c.table.Minor(surv)
}

// Decode reconstructs the erased data letters. surviving maps data index →
// letter for the intact data letters; redundancy maps redundancy index →
// letter for intact redundancy letters. At most F letters may be missing in
// total. The returned map contains the reconstructed data letters for every
// erased data index.
//
// Decoding solves the linear system restricted to the erased coordinates:
// for each available redundancy letter r_i,
//
//	r_i − Σ_{l intact} η_i^l·d_l = Σ_{l erased} η_i^l·d_l,
//
// an s×s Vandermonde-minor system (s = number of erased data letters) whose
// inverse the code's Table holds; the solution is integral because the true
// data is, and ErrNonIntegral reports corrupted letters.
func (c *Code) Decode(surviving map[int][]bigint.Int, redundancy map[int][]bigint.Int) (map[int][]bigint.Int, error) {
	var erased []int
	for l := 0; l < c.K; l++ {
		if _, ok := surviving[l]; !ok {
			erased = append(erased, l)
		}
	}
	if len(erased) == 0 {
		return map[int][]bigint.Int{}, nil
	}
	if len(erased) > len(redundancy) {
		return nil, fmt.Errorf("erasure: %d erasures but only %d redundancy letters available", len(erased), len(redundancy))
	}
	// Pick the first len(erased) available redundancy letters.
	var rows []int
	for i := 0; i < c.F && len(rows) < len(erased); i++ {
		if _, ok := redundancy[i]; ok {
			rows = append(rows, i)
		}
	}
	if len(rows) < len(erased) {
		return nil, fmt.Errorf("erasure: insufficient redundancy letters")
	}
	m, err := c.Minor(rows, erased)
	if err != nil {
		return nil, err
	}

	// Residuals: b_r = redundancy[rows[r]] − Σ_{intact l} η^l·d_l,
	// element-wise over the letter width.
	width := len(redundancy[rows[0]])
	b := make([][]bigint.Int, len(rows))
	for r, ri := range rows {
		letter := redundancy[ri]
		if len(letter) != width {
			return nil, fmt.Errorf("erasure: ragged redundancy letter %d", ri)
		}
		row := make([]bigint.Int, width)
		copy(row, letter)
		for l := 0; l < c.K; l++ {
			d, ok := surviving[l]
			if !ok {
				continue
			}
			if len(d) != width {
				return nil, fmt.Errorf("erasure: ragged surviving letter %d", l)
			}
			w := c.e[ri][l]
			if w == 0 {
				continue
			}
			for j := 0; j < width; j++ {
				if d[j].IsZero() {
					continue
				}
				row[j] = row[j].Sub(d[j].MulInt64(w))
			}
		}
		b[r] = row
	}

	x := make([][]bigint.Int, len(erased))
	out := make(map[int][]bigint.Int, len(erased))
	for v, l := range erased {
		x[v] = make([]bigint.Int, width)
		out[l] = x[v]
	}
	if err := m.Apply(x, b); err != nil {
		return nil, err
	}
	return out, nil
}

// GeneratorMatrix returns the full (K+F)×K generator (I_K ; E) as a rational
// matrix, for verification against Definition 2.7.
func (c *Code) GeneratorMatrix() *mat.Matrix {
	g := mat.New(c.K+c.F, c.K)
	for i := 0; i < c.K; i++ {
		g.Set(i, i, rat.One())
	}
	for i := 0; i < c.F; i++ {
		for l := 0; l < c.K; l++ {
			g.Set(c.K+i, l, rat.FromInt64(c.e[i][l]))
		}
	}
	return g
}
