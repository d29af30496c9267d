package ftengine

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/bigint"
	"repro/internal/collective"
	"repro/internal/erasure"
	"repro/internal/machine"
)

// Ctx is the per-processor durable context: the data the linear code
// protects. On a fault the victim's copy is conceptually lost; the Coder's
// recovery protocols restore it (and charge the restoration).
type Ctx struct {
	// Data is the rank's coded shard (workers; nil on code processors).
	Data []bigint.Int
	// Code is the encoded column vector (linear-code processors only).
	Code []bigint.Int
}

// Coder runs the Section 4.1 linear-erasure protocols over a Layout's grid:
// Vandermonde-weighted column encoding, residual-reduce recovery of lost
// shards, and re-encoding of dead code processors. It is payload-agnostic —
// shards are flat []bigint.Int vectors, whatever the Workload packed into
// them. A nil erasure code (f = 0) degrades every operation to a no-op while
// Protect still crosses the evaluation barrier, preserving the fault-free
// phase structure.
type Coder struct {
	lay  Layout
	code *erasure.Code
	// dataLen is the flat length of every worker's input shard; prodLen the
	// flat length of the per-rank product share the mid-step re-encoding
	// protects. Code processors use them to size their zero contributions.
	dataLen, prodLen int
}

// NewCoder builds a Coder for the layout. code may be nil when f = 0.
func NewCoder(lay Layout, code *erasure.Code, dataLen, prodLen int) *Coder {
	return &Coder{lay: lay, code: code, dataLen: dataLen, prodLen: prodLen}
}

// ErrToleranceExceeded reports a fault plan outside the code's budget: more
// victims in one column than it has live code rows, or fewer surviving
// columns than interpolation needs. Every over-budget exit wraps it.
var ErrToleranceExceeded = errors.New("fault tolerance exceeded")

// Protect runs the engine's stage 0 on one rank: encode the input shards
// onto the code processors, cross the evaluation barrier, and repair any
// data the barrier's fault events destroyed. The barrier is crossed even
// with a nil code so the phase structure (and fault injection points) do not
// depend on f.
func (c *Coder) Protect(p *machine.Proc, rk *Rank) error {
	codeword, err := c.CreateInputCode(p, rk.Ctx.Data)
	if err != nil {
		return err
	}
	rk.Ctx.Code = codeword

	// Faults during the evaluation stage lose input data; the linear code
	// rebuilds it with reduces — no recomputation (Section 4.1).
	ev, err := p.Barrier(PhaseEval)
	if err != nil {
		return err
	}
	rk.EvalEvents = ev
	if err := c.RecoverData(p, ev, rk.Ctx); err != nil {
		return err
	}
	rk.Recovered += len(ev)
	return nil
}

func zeroVec(n int) machine.Ints {
	v := make(machine.Ints, n)
	for i := range v {
		v[i] = bigint.Zero()
	}
	return v
}

// columnGroupWithRoot builds the reduce group for column j's code row i:
// the given worker rows (ascending) followed by the root rank.
func (c *Coder) columnGroupWithRoot(j int, rows []int, root int) collective.Group {
	g := make(collective.Group, 0, len(rows)+1)
	for _, r := range rows {
		g = append(g, c.lay.Worker(r, j))
	}
	return append(g, root)
}

// CreateInputCode runs the paper's code creation (Section 4.1): each column
// of workers encodes its input shards onto the f code processors below it.
// Workers pass their shard; code processors receive their codeword; other
// ranks return nil.
func (c *Coder) CreateInputCode(p *machine.Proc, data []bigint.Int) ([]bigint.Int, error) {
	return c.encode(p, "code1", data, c.dataLen, func(int, int) bool { return true })
}

// RecoverData repairs shard data lost to the fault events (Section 4.1,
// "Fault recovery"), writing the victim's restored shard back into ctx, then
// re-encodes the codewords of dead code processors from the restored
// columns.
func (c *Coder) RecoverData(p *machine.Proc, ev []machine.FaultEvent, ctx *Ctx) error {
	if len(ev) == 0 || c.code == nil {
		return nil
	}
	data, deadCode, err := c.repair(p, ev, nil, ctx.Data, ctx.Code, c.dataLen, "rec1")
	if err != nil {
		return err
	}
	ctx.Data = data
	code, err := c.encode(p, "reenc1", ctx.Data, c.dataLen, func(i, j int) bool { return deadCode[[2]int{i, j}] })
	if err != nil {
		return err
	}
	if code != nil {
		ctx.Code = code
	}
	return nil
}

// CreateProductCode re-creates the linear code over the mid-step product
// shares of the live worker columns ("Each BFS step initiates a new code
// creation process"), protecting the recombination stage. It returns the
// code processor's product codeword (nil elsewhere).
func (c *Coder) CreateProductCode(p *machine.Proc, deadCols map[int]bool, prod []bigint.Int, tag string) ([]bigint.Int, error) {
	return c.encode(p, tag+"/code2", prod, c.prodLen, func(_, j int) bool { return !deadCols[j] })
}

// RecoverProducts repairs product shares lost after CreateProductCode for
// victims in live worker columns, using the freshly created product code.
// The victim's restored share is returned (others pass through unchanged).
func (c *Coder) RecoverProducts(p *machine.Proc, ev []machine.FaultEvent, deadCols map[int]bool, prod, prodCode []bigint.Int, tag string) ([]bigint.Int, error) {
	if len(ev) == 0 || c.code == nil {
		return prod, nil
	}
	prod, _, err := c.repair(p, ev, deadCols, prod, prodCode, c.prodLen, tag+"/rec2")
	return prod, err
}

// encode is the column code creation every protocol shares: for each pair
// (code row i, column j) that keep selects, in row-major order, column j's
// workers reduce their vec, weighted by code row i, onto code processor
// (i, j), which contributes zeros of length n. It returns the codeword this
// rank received as a root (nil on every other rank or with no code).
func (c *Coder) encode(p *machine.Proc, tag string, vec []bigint.Int, n int, keep func(i, j int) bool) ([]bigint.Int, error) {
	if c.code == nil {
		return nil, nil
	}
	lay := c.lay
	rank := p.ID()
	allRows := seq(lay.GPrime)
	var myCode []bigint.Int
	for i := 0; i < lay.F; i++ {
		for j := 0; j < lay.Cols(); j++ {
			if !keep(i, j) {
				continue
			}
			root := lay.LinearCode(i, j)
			isWorker := rank < lay.P && rank/lay.GPrime == j
			if !isWorker && rank != root {
				continue
			}
			group := c.columnGroupWithRoot(j, allRows, root)
			var mine machine.Ints
			var weight int64
			if isWorker {
				mine = machine.Ints(vec)
				weight = c.code.RedundancyRow(i)[rank%lay.GPrime]
			} else {
				mine = zeroVec(n)
			}
			got, err := collective.WeightedReduce(p, group, len(group)-1, fmt.Sprintf("%s/%d/%d", tag, i, j), mine, weight)
			if err != nil {
				return nil, err
			}
			if rank == root {
				myCode = []bigint.Int(got)
			}
		}
	}
	return myCode, nil
}

// repair is the column repair every protocol shares: it rebuilds the vec of
// every worker the fault events killed outside skipCols from the column's
// survivors and codewords (length n), via residual reduces to the column's
// first victim (the leader) and one small exact solve (Section 4.1, "Fault
// recovery"). It returns this rank's vec — restored on a victim, unchanged
// elsewhere — and the (code row, column) pairs whose code processor died.
func (c *Coder) repair(p *machine.Proc, ev []machine.FaultEvent, skipCols map[int]bool, vec, code []bigint.Int, n int, tag string) ([]bigint.Int, map[[2]int]bool, error) {
	lay := c.lay
	rank := p.ID()

	// Partition victims: workers by column; linear-code casualties.
	victimRows := map[int][]int{} // column -> dead worker rows
	deadCode := map[[2]int]bool{} // (code row, column)
	for _, f := range ev {
		switch {
		case f.Proc < lay.P:
			col := f.Proc / lay.GPrime
			if !skipCols[col] {
				victimRows[col] = append(victimRows[col], f.Proc%lay.GPrime)
			}
		case f.Proc < lay.P+lay.F*lay.Cols():
			idx := f.Proc - lay.P
			deadCode[[2]int{idx / lay.Cols(), idx % lay.Cols()}] = true
		}
	}
	cols := make([]int, 0, len(victimRows))
	for col := range victimRows {
		sort.Ints(victimRows[col])
		cols = append(cols, col)
	}
	sort.Ints(cols)

	for _, j := range cols {
		dead := victimRows[j]
		alive := complement(lay.GPrime, dead)
		var codeRows []int
		for i := 0; i < lay.F && len(codeRows) < len(dead); i++ {
			if !deadCode[[2]int{i, j}] {
				codeRows = append(codeRows, i)
			}
		}
		if len(codeRows) < len(dead) {
			return nil, nil, fmt.Errorf("ftengine: %w: column %d lost %d workers with only %d live code rows", ErrToleranceExceeded, j, len(dead), len(codeRows))
		}
		leader := lay.Worker(dead[0], j)
		amLeader := rank == leader
		inColumn := rank < lay.P && rank/lay.GPrime == j

		// Residual reduces: Σ_{alive r} η_i^r·x_r to the leader, plus the
		// codeword from the code processor; leader computes residuals.
		var residuals [][]bigint.Int
		for idx, i := range codeRows {
			group := c.columnGroupWithRoot(j, alive, leader)
			rtag := fmt.Sprintf("%s/%d/%d", tag, i, j)
			if amLeader || (inColumn && containsInt(alive, rank%lay.GPrime)) {
				var mine machine.Ints
				var weight int64
				if amLeader {
					mine = zeroVec(n)
				} else {
					mine = machine.Ints(vec)
					weight = c.code.RedundancyRow(i)[rank%lay.GPrime]
				}
				got, err := collective.WeightedReduce(p, group, len(group)-1, rtag, mine, weight)
				if err != nil {
					return nil, nil, err
				}
				if amLeader {
					residuals = append(residuals, got)
				}
			}
			codeProc := lay.LinearCode(i, j)
			if rank == codeProc {
				if err := p.Send(leader, rtag+"/cw", machine.Ints(code)); err != nil {
					return nil, nil, err
				}
			}
			if amLeader {
				cw, err := p.RecvInts(codeProc, rtag+"/cw")
				if err != nil {
					return nil, nil, err
				}
				for t := range residuals[idx] {
					residuals[idx][t] = cw[t].Sub(residuals[idx][t])
				}
				p.Work(int64(len(cw)))
			}
		}

		// Leader solves the Vandermonde minor and distributes the shards.
		stag := fmt.Sprintf("%s/share/%d", tag, j)
		if amLeader {
			shares, err := c.decode(p, codeRows, dead, residuals)
			if err != nil {
				return nil, nil, err
			}
			for vi, r := range dead {
				target := lay.Worker(r, j)
				if target == leader {
					vec = shares[vi]
					continue
				}
				if err := p.Send(target, stag, machine.Ints(shares[vi])); err != nil {
					return nil, nil, err
				}
			}
		} else if inColumn && containsInt(dead, rank%lay.GPrime) {
			got, err := p.RecvInts(leader, stag)
			if err != nil {
				return nil, nil, err
			}
			vec = []bigint.Int(got)
		}
	}
	return vec, deadCode, nil
}

// decode restores the dead rows' vectors from the residuals of the live
// code rows, residual_i = Σ_v η_i^{r_v}·x_v, with the code's precomputed
// decoding minor (Section 4.1, "one small exact solve"). Each nonzero
// weight × nonzero residual entry is charged at the entry's word length.
func (c *Coder) decode(p *machine.Proc, codeRows, deadRows []int, residuals [][]bigint.Int) ([][]bigint.Int, error) {
	m, err := c.code.Minor(codeRows, deadRows)
	if err != nil {
		return nil, fmt.Errorf("ftengine: %w", err)
	}
	out := make([][]bigint.Int, len(deadRows))
	for v := range out {
		out[v] = make([]bigint.Int, len(residuals[0]))
	}
	if err := m.Apply(out, residuals); err != nil {
		return nil, fmt.Errorf("ftengine: %w", err)
	}
	var work int64
	for _, row := range m.Rows {
		for i, w := range row {
			for _, x := range residuals[i] {
				if w != 0 && !x.IsZero() {
					work += wordsOf(x)
				}
			}
		}
	}
	p.Work(work)
	return out, nil
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func complement(n int, exclude []int) []int {
	ex := map[int]bool{}
	for _, v := range exclude {
		ex[v] = true
	}
	out := make([]int, 0, n-len(exclude))
	for i := 0; i < n; i++ {
		if !ex[i] {
			out = append(out, i)
		}
	}
	return out
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

func wordsOf(x bigint.Int) int64 {
	if l := int64(x.WordLen()); l > 0 {
		return l
	}
	return 1
}
