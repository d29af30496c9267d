package main

import (
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"time"

	ftmul "repro"
	"repro/internal/bigint"
	"repro/internal/ftmatmul"
	"repro/internal/ftparallel"
	"repro/internal/machine"
	"repro/internal/mat"
	"repro/internal/toom"
)

// The fault-tolerant configuration every integer workload runs: Toom-2 on
// P = 9 workers tolerating f = 1 fault, which the layout extends to 15
// ranks. ftmatmul's two-algorithms scheme also runs on 15 ranks.
const (
	toomK    = 2
	workers  = 9
	faultTol = 1
	ranks    = 15
)

// opDeadline bounds one operation. A miss counts as a failure and ends the
// run: the stuck operation's goroutine cannot be cancelled through the
// public API, so the process exits instead of waiting for it.
const opDeadline = 30 * time.Second

var (
	errDeadline = errors.New("operation missed its deadline")
	errWrong    = errors.New("product differs from the math/big reference")
)

// spec is one workload: the operand family, the backend, and the fault
// phases its plans are drawn from.
type spec struct {
	name    string
	matrix  bool // ft-matmul family; otherwise two integers of bits bits
	bits    int  // integer operand bits, or matrix entry bits (a multiple of 64)
	dim     int  // matrix dimension
	backend machine.Backend
	phases  []string // fault phases; empty means every operation is fault-free
	// undeclared workloads run by name and under --workload all, but
	// BENCHMARK.json does not list them (README.md).
	undeclared bool
}

// tailPct is the percentile reported as latency_tail_ms. It is fixed so that
// runs with different operation counts report the same statistic, and low
// enough that a 30-s run already has at least ten samples beyond it on
// every workload (README.md).
const tailPct float64 = 85

var specs = []spec{
	{name: "ft-int-clean", bits: 1 << 18, backend: machine.BackendWall},
	{name: "ft-int-faults", bits: 1 << 18, backend: machine.BackendWall,
		phases: []string{ftmul.PhaseEval, ftmul.PhaseMul, ftmul.PhaseInterp}},
	{name: "ft-matmul", matrix: true, bits: 2048, dim: 32, backend: machine.BackendSim,
		phases: []string{ftmul.PhaseEval, ftmul.PhaseMul}, undeclared: true},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// intSpec and matSpec are the two operand families; a traced run times the
// layers of the family its workload does not use on these shapes.
func intSpec() spec { s, _ := specByName("ft-int-clean"); return s }
func matSpec() spec { s, _ := specByName("ft-matmul"); return s }

// allPlans lists every single fail-stop plan of the workload: each rank
// dying at the first barrier of each phase.
func (s spec) allPlans() []ftmul.Fault {
	var out []ftmul.Fault
	for _, ph := range s.phases {
		for r := 0; r < ranks; r++ {
			out = append(out, ftmul.Fault{Proc: r, Phase: ph})
		}
	}
	return out
}

// round returns the fault plans of one round: every plan once, in an
// order shuffled by rng, so each round has the same mix of victims and
// phases. A fault-free workload's round is a single clean operation.
func (s spec) round(rng *rand.Rand) [][]ftmul.Fault {
	all := s.allPlans()
	if len(all) == 0 {
		return [][]ftmul.Fault{nil}
	}
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	out := make([][]ftmul.Fault, len(all))
	for i, f := range all {
		out[i] = []ftmul.Fault{f}
	}
	return out
}

// cycle returns the short fixed plan cycle a traced run repeats: one
// seed-chosen victim per phase. Count metrics are means over whole cycles,
// so they do not depend on how many cycles fit in the run.
func (s spec) cycle(rng *rand.Rand) [][]ftmul.Fault {
	if len(s.phases) == 0 {
		return [][]ftmul.Fault{nil}
	}
	out := make([][]ftmul.Fault, len(s.phases))
	for i, ph := range s.phases {
		out[i] = []ftmul.Fault{{Proc: rng.Intn(ranks), Phase: ph}}
	}
	return out
}

// input is one operation: operands, fault plan and the math/big reference.
type input struct {
	plan []ftmul.Fault
	// integer family
	a, b, want *big.Int
	// matrix family
	ma, mb, wantM [][]*big.Int
}

// newInput draws the operands of one operation from rng and computes the
// reference product.
func (s spec) newInput(rng *rand.Rand, plan []ftmul.Fault) *input {
	in := &input{plan: plan}
	if !s.matrix {
		in.a, in.b = randSigned(rng, s.bits), randSigned(rng, s.bits)
		in.want = new(big.Int).Mul(in.a, in.b)
		return in
	}
	in.ma, in.mb = randMatrix(rng, s.dim, s.bits), randMatrix(rng, s.dim, s.bits)
	in.wantM = naiveBig(in.ma, in.mb)
	return in
}

// randSigned returns a random integer of exactly bits bits (a multiple of
// 64) with a random sign.
func randSigned(rng *rand.Rand, bits int) *big.Int {
	words := make([]big.Word, bits/64)
	for i := range words {
		words[i] = big.Word(rng.Uint64())
	}
	words[len(words)-1] |= 1 << 63
	x := new(big.Int).SetBits(words)
	if rng.Intn(2) == 0 {
		x.Neg(x)
	}
	return x
}

func randMatrix(rng *rand.Rand, n, bits int) [][]*big.Int {
	m := make([][]*big.Int, n)
	for i := range m {
		m[i] = make([]*big.Int, n)
		for j := range m[i] {
			m[i][j] = randSigned(rng, bits)
		}
	}
	return m
}

// naiveBig is the O(n³) math/big reference product.
func naiveBig(a, b [][]*big.Int) [][]*big.Int {
	c := make([][]*big.Int, len(a))
	t := new(big.Int)
	for i := range a {
		c[i] = make([]*big.Int, len(b[0]))
		for j := range c[i] {
			acc := new(big.Int)
			for k := range b {
				acc.Add(acc, t.Mul(a[i][k], b[k][j]))
			}
			c[i][j] = acc
		}
	}
	return c
}

func equalMatrix(a, b [][]*big.Int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j].Cmp(b[i][j]) != 0 {
				return false
			}
		}
	}
	return true
}

// opReport is the part of an operation's cost report the benchmark
// records. bwIn and faultsSeen come from the engine's machine.Report and
// are only filled by the traced path.
type opReport struct {
	ftmul.CostReport
	recovered  int
	dead       int
	bwIn       int64
	faultsSeen int
}

// sameCounts reports whether two reports of the same operation agree on
// every count both paths fill.
func (r opReport) sameCounts(o opReport) bool {
	return r.F == o.F && r.BW == o.BW && r.L == o.L &&
		r.TotalF == o.TotalF && r.TotalBW == o.TotalBW && r.TotalL == o.TotalL &&
		r.recovered == o.recovered && r.dead == o.dead
}

func (s spec) cluster() ftmul.ClusterConfig {
	return ftmul.ClusterConfig{P: workers, Backend: string(s.backend)}
}

// mulFacade runs one operation through the public API and verifies it:
// operands in, verified product out.
func (s spec) mulFacade(in *input) (opReport, error) {
	if s.matrix {
		c, rep, err := ftmul.MulMatrixFaultTolerant(in.ma, in.mb, s.cluster(), in.plan)
		if err != nil {
			return opReport{}, err
		}
		if !equalMatrix(c, in.wantM) {
			return opReport{}, errWrong
		}
		return opReport{CostReport: rep.CostReport, recovered: rep.Recovered, dead: len(rep.DeadRanks)}, nil
	}
	p, rep, err := ftmul.MulFaultTolerant(in.a, in.b, toomK, faultTol, s.cluster(), in.plan)
	if err != nil {
		return opReport{}, err
	}
	if p.Cmp(in.want) != 0 {
		return opReport{}, errWrong
	}
	return opReport{CostReport: rep.CostReport, recovered: rep.Recovered, dead: len(rep.DeadColumns)}, nil
}

// mulEngine runs the same operation one layer down, through the engine the
// public API wraps, with a span around each step. It performs exactly the
// facade's conversions and engine call, and additionally reads the full
// machine.Report (inbound bandwidth, fault events).
func (s spec) mulEngine(in *input, tr *tracer, op int) (opReport, error) {
	faults := make([]machine.Fault, len(in.plan))
	for i, f := range in.plan {
		faults[i] = machine.Fault{Proc: f.Proc, Phase: f.Phase, Hit: f.Hit}
	}
	cfg := machine.Config{Backend: s.backend}
	var rep *machine.Report
	var out opReport
	if s.matrix {
		sp := tr.begin(op, "ftmul.convert_in")
		ma, mb := toIntMat(in.ma), toIntMat(in.mb)
		tr.end(sp)
		sp = tr.begin(op, "ftmatmul.multiply")
		res, err := ftmatmul.Multiply(ma, mb, ftmatmul.Options{Machine: cfg, Faults: faults})
		tr.end(sp)
		if err != nil {
			return opReport{}, err
		}
		sp = tr.begin(op, "ftmul.convert_out")
		c := fromIntMat(res.C)
		tr.end(sp)
		sp = tr.begin(op, "verify")
		ok := equalMatrix(c, in.wantM)
		tr.end(sp)
		if !ok {
			return opReport{}, errWrong
		}
		rep, out.recovered, out.dead = res.Report, res.Recovered, len(res.Dead)
	} else {
		sp := tr.begin(op, "ftmul.convert_in")
		a, b := bigint.FromBig(in.a), bigint.FromBig(in.b)
		alg, err := toom.New(toomK)
		tr.end(sp)
		if err != nil {
			return opReport{}, err
		}
		// DFSSteps stays 0: with unlimited memory the facade's Lemma 3.1
		// schedule has no DFS steps.
		sp = tr.begin(op, "ftparallel.multiply")
		res, err := ftparallel.Multiply(a, b, ftparallel.Options{Alg: alg, P: workers, F: faultTol, Machine: cfg, Faults: faults})
		tr.end(sp)
		if err != nil {
			return opReport{}, err
		}
		sp = tr.begin(op, "ftmul.convert_out")
		p := res.Product.ToBig()
		tr.end(sp)
		sp = tr.begin(op, "verify")
		ok := p.Cmp(in.want) == 0
		tr.end(sp)
		if !ok {
			return opReport{}, errWrong
		}
		rep, out.recovered, out.dead = res.Report, res.Recovered, len(res.DeadColumns)
	}
	out.CostReport = ftmul.CostReport{F: rep.F, BW: rep.BW, L: rep.L,
		TotalF: rep.TotalF, TotalBW: rep.TotalBW, TotalL: rep.TotalL, Time: rep.Time}
	out.bwIn, out.faultsSeen = rep.BWIn, len(rep.Faults)
	return out, nil
}

func toIntMat(rows [][]*big.Int) *mat.IntMat {
	m := mat.NewIntMat(len(rows), len(rows[0]))
	for i, row := range rows {
		for j, v := range row {
			m.Set(i, j, bigint.FromBig(v))
		}
	}
	return m
}

func fromIntMat(m *mat.IntMat) [][]*big.Int {
	out := make([][]*big.Int, m.Rows())
	for i := range out {
		out[i] = make([]*big.Int, m.Cols())
		for j := range out[i] {
			out[i][j] = m.At(i, j).ToBig()
		}
	}
	return out
}

// withDeadline runs fn on its own goroutine and waits at most d for it. A
// panic inside fn is returned as an error. On a deadline miss the goroutine
// is left running; the caller ends the process (see opDeadline).
func withDeadline[T any](d time.Duration, fn func() (T, error)) (T, error) {
	type done struct {
		v   T
		err error
	}
	ch := make(chan done, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				ch <- done{err: fmt.Errorf("panic: %v", r)}
			}
		}()
		v, err := fn()
		ch <- done{v, err}
	}()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case r := <-ch:
		return r.v, r.err
	case <-t.C:
		var zero T
		return zero, errDeadline
	}
}
