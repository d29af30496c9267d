package main

import (
	"fmt"
	"math/big"

	"repro/internal/bigint"
	"repro/internal/collective"
	"repro/internal/erasure"
	"repro/internal/ftengine"
	"repro/internal/machine"
	"repro/internal/parallel"
	"repro/internal/toom"
)

// The per-layer ladder: each function times one layer's public API on one
// operation's operands, in a span per call, and checks the layer's output.
// Verification runs outside the spans.

// intLayers times, on one pair of integer operands: the kernel ladder
// (bigint.Mul), sequential Toom-2 on the full operands and at the size one
// worker rank multiplies, top-level evaluation and interpolation, and the
// layout's column erasure code (encode, and decode of one erased row).
func intLayers(tr *tracer, op int, in *input) error {
	a, b := bigint.FromBig(in.a), bigint.FromBig(in.b)

	sp := tr.begin(op, "bigint.mul")
	z := a.Mul(b)
	tr.end(sp)
	if z.ToBig().Cmp(in.want) != 0 {
		return fmt.Errorf("bigint.Mul: %w", errWrong)
	}

	alg, err := toom.New(toomK)
	if err != nil {
		return err
	}
	sp = tr.begin(op, "toom.mul")
	z = alg.Mul(a, b)
	tr.end(sp)
	if z.ToBig().Cmp(in.want) != 0 {
		return fmt.Errorf("toom.Mul: %w", errWrong)
	}

	pl, err := parallel.NewPlan(a, b, parallel.Options{Alg: alg, P: workers})
	if err != nil {
		return err
	}
	// A worker rank's leaf multiplies n/k^levels bits (2^16 for 2^18-bit
	// operands at P = 9, k = 2).
	leafBits := in.a.BitLen()
	for i := 0; i < pl.Levels(); i++ {
		leafBits /= toomK
	}
	la, lb := a.Extract(0, leafBits), b.Extract(0, leafBits)
	sp = tr.begin(op, "toom.leaf_mul")
	z = alg.Mul(la, lb)
	tr.end(sp)
	if z.ToBig().Cmp(new(big.Int).Mul(la.ToBig(), lb.ToBig())) != 0 {
		return fmt.Errorf("toom.Mul at leaf size: %w", errWrong)
	}

	// Top-level digits of |a| and |b|, split as Toom's recursion splits them.
	shift := (max(a.BitLen(), b.BitLen()) + toomK - 1) / toomK
	da, db := make([]bigint.Int, toomK), make([]bigint.Int, toomK)
	for i := range da {
		da[i], db[i] = a.Extract(i*shift, shift), b.Extract(i*shift, shift)
	}
	sp = tr.begin(op, "toom.eval")
	ea, eb := alg.EvalDigits(da, nil), alg.EvalDigits(db, nil)
	tr.end(sp)
	prods := make([]bigint.Int, len(ea))
	for i := range prods {
		prods[i] = ea[i].Mul(eb[i])
	}
	sp = tr.begin(op, "toom.interp")
	coeffs := alg.Interpolate(prods, nil)
	tr.end(sp)
	if toom.Recompose(coeffs, shift).ToBig().Cmp(new(big.Int).Abs(in.want)) != 0 {
		return fmt.Errorf("toom eval/interp: %w", errWrong)
	}

	// Column 0 of the worker grid: its ranks' input shards are the data
	// letters of the layout's column code.
	lay, err := ftengine.NewLayout(workers, toomK, faultTol)
	if err != nil {
		return err
	}
	data := make([][]bigint.Int, lay.GPrime)
	for r := range data {
		sa, sb := pl.InputShares(lay.Worker(r, 0))
		data[r] = append(append([]bigint.Int(nil), sa...), sb...)
	}
	code, err := erasure.New(lay.GPrime, faultTol)
	if err != nil {
		return err
	}
	sp = tr.begin(op, "erasure.encode")
	red, err := code.Encode(data)
	tr.end(sp)
	if err != nil {
		return err
	}
	surviving := map[int][]bigint.Int{}
	for r := 1; r < len(data); r++ {
		surviving[r] = data[r]
	}
	sp = tr.begin(op, "erasure.decode")
	got, err := code.Decode(surviving, map[int][]bigint.Int{0: red[0]})
	tr.end(sp)
	if err != nil {
		return err
	}
	if !equalInts(got[0], data[0]) {
		return fmt.Errorf("erasure.Decode: erased row not restored")
	}
	return nil
}

// matLayers times the naive and Strassen products of the full matrices and
// the naive product of one (n/2)×(n/2) tile pair, one rank's compute.
func matLayers(tr *tracer, op int, in *input) error {
	ma, mb := toIntMat(in.ma), toIntMat(in.mb)

	sp := tr.begin(op, "mat.naive")
	c := ma.MulNaive(mb)
	tr.end(sp)
	if !equalMatrix(fromIntMat(c), in.wantM) {
		return fmt.Errorf("IntMat.MulNaive: %w", errWrong)
	}

	sp = tr.begin(op, "mat.strassen")
	c = ma.Strassen(mb)
	tr.end(sp)
	if !equalMatrix(fromIntMat(c), in.wantM) {
		return fmt.Errorf("IntMat.Strassen: %w", errWrong)
	}

	h := len(in.ma) / 2
	ta, tb := ma.Block(0, 0, h, h), mb.Block(0, 0, h, h)
	sp = tr.begin(op, "mat.tile_mul")
	c = ta.MulNaive(tb)
	tr.end(sp)
	if !equalMatrix(fromIntMat(c), naiveBig(fromIntMat(ta), fromIntMat(tb))) {
		return fmt.Errorf("IntMat.MulNaive on a tile: %w", errWrong)
	}
	return nil
}

// shareVector is the vector one rank holds in the workload: worker 0's
// input shard for the integer family, the top-left A tile for matrices.
func shareVector(s spec, in *input) (machine.Ints, error) {
	if s.matrix {
		h := len(in.ma) / 2
		return machine.Ints(toIntMat(in.ma).Block(0, 0, h, h).Flat()), nil
	}
	alg, err := toom.New(toomK)
	if err != nil {
		return nil, err
	}
	pl, err := parallel.NewPlan(bigint.FromBig(in.a), bigint.FromBig(in.b), parallel.Options{Alg: alg, P: workers})
	if err != nil {
		return nil, err
	}
	sa, sb := pl.InputShares(0)
	return append(append(machine.Ints(nil), sa...), sb...), nil
}

// commLayers times one Broadcast and one Reduce of vec over one extended
// grid column (P/(2k-1) workers plus f code ranks), and a barrier-only
// program on all ranks, each as machine.New + Run on the workload's backend.
func commLayers(tr *tracer, op int, backend machine.Backend, vec machine.Ints) error {
	lay, err := ftengine.NewLayout(workers, toomK, faultTol)
	if err != nil {
		return err
	}
	g := make(collective.Group, lay.GPrime+faultTol)
	for i := range g {
		g[i] = i
	}

	got := make([]machine.Ints, len(g))
	sp := tr.begin(op, "collective.bcast")
	err = runMachine(len(g), backend, func(p *machine.Proc) error {
		var v machine.Ints
		if p.ID() == 0 {
			v = vec
		}
		out, err := collective.Broadcast(p, g, 0, "bench/bcast", v)
		got[p.ID()] = out
		return err
	})
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("collective.Broadcast: %w", err)
	}
	for _, v := range got {
		if !equalInts(v, vec) {
			return fmt.Errorf("collective.Broadcast: a rank received a different vector")
		}
	}

	var sum machine.Ints
	sp = tr.begin(op, "collective.reduce")
	err = runMachine(len(g), backend, func(p *machine.Proc) error {
		out, err := collective.Reduce(p, g, 0, "bench/reduce", vec)
		if p.ID() == 0 {
			sum = out
		}
		return err
	})
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("collective.Reduce: %w", err)
	}
	for i := range vec {
		if !sum[i].Equal(vec[i].MulInt64(int64(len(g)))) {
			return fmt.Errorf("collective.Reduce: wrong sum")
		}
	}

	sp = tr.begin(op, "machine.run_empty")
	err = runMachine(ranks, backend, func(p *machine.Proc) error {
		_, err := p.Barrier("bench")
		return err
	})
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("machine barrier program: %w", err)
	}
	return nil
}

func runMachine(p int, backend machine.Backend, program func(*machine.Proc) error) error {
	m, err := machine.New(machine.Config{P: p, Backend: backend}, nil)
	if err != nil {
		return err
	}
	_, err = m.Run(program)
	return err
}

func equalInts[T ~[]bigint.Int](a, b T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}
