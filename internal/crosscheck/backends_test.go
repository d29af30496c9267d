// Package crosscheck runs the fault-tolerant multiplication matrix on both
// machine backends — the deterministic virtual-clock simulator and the
// in-process wall-clock runtime — and asserts that the seam refactor changed
// nothing observable: products stay bit-identical to math/big on both
// backends, and the simulator's F/BW/L counts stay pinned to the values the
// seed simulator produced before the transport extraction.
package crosscheck

import (
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/bigint"
	"repro/internal/ftparallel"
	"repro/internal/machine"
	"repro/internal/parallel"
	"repro/internal/toom"
)

// golden F/BW/L values captured from the seed simulator (commit c4ed587,
// before the transport seam) with seed 7, 8192-bit operands, k=2, P=9,
// f as listed. Any drift here means the refactor changed the cost model.
type goldenCounts struct {
	f, bw, l int64
}

func TestBackendsAgreeOnFaultMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := bigint.Random(rng, 1<<13)
	b := bigint.Random(rng, 1<<13)
	want := new(big.Int).Mul(a.ToBig(), b.ToBig())
	alg := toom.MustNew(2)
	lay, err := ftparallel.NewLayout(9, 2, 2)
	if err != nil {
		t.Fatal(err)
	}

	plans := []struct {
		name   string
		f, dfs int
		faults []machine.Fault
		golden goldenCounts
	}{
		{"nofault-f1", 1, 0, nil,
			goldenCounts{7947, 268, 25}},
		{"eval-worker", 2, 0,
			[]machine.Fault{{Proc: 4, Phase: ftparallel.PhaseEval}},
			goldenCounts{8283, 399, 32}},
		{"mul-worker", 1, 0,
			[]machine.Fault{{Proc: 4, Phase: ftparallel.PhaseMul}},
			goldenCounts{7318, 268, 25}},
		{"interp-worker", 1, 0,
			[]machine.Fault{{Proc: lay.Worker(1, 2), Phase: ftparallel.PhaseInterp}},
			goldenCounts{7947, 348, 27}},
		{"mixed-f2", 2, 0,
			[]machine.Fault{
				{Proc: 1, Phase: ftparallel.PhaseEval},
				{Proc: 4, Phase: ftparallel.PhaseMul},
			},
			goldenCounts{7654, 399, 32}},
		{"dfs-mul", 1, 1,
			[]machine.Fault{{Proc: 3, Phase: ftparallel.PhaseMul, Hit: 1}},
			goldenCounts{7511, 396, 65}},
		// A linear-code processor that dies after the evaluation barrier is
		// re-encoded from the restored column.
		{"mul-linear-code", 2, 0,
			[]machine.Fault{{Proc: lay.LinearCode(0, 1), Phase: ftparallel.PhaseMul}},
			goldenCounts{8235, 399, 32}},
		{"interp-linear-code+worker", 2, 0,
			[]machine.Fault{
				{Proc: lay.LinearCode(0, 1), Phase: ftparallel.PhaseInterp},
				{Proc: lay.Worker(2, 1), Phase: ftparallel.PhaseInterp},
			},
			goldenCounts{8315, 479, 34}},
		// Two product shares of one column repaired from the F=2 product
		// code inside a DFS sub-problem.
		{"dfs-interp-pair", 2, 1,
			[]machine.Fault{
				{Proc: lay.Worker(0, 2), Phase: ftparallel.PhaseInterp, Hit: 1},
				{Proc: lay.Worker(2, 2), Phase: ftparallel.PhaseInterp, Hit: 1},
			},
			goldenCounts{8162, 643, 83}},
	}

	for _, pl := range plans {
		pl := pl
		t.Run(pl.name, func(t *testing.T) {
			for _, backend := range []machine.Backend{machine.BackendSim, machine.BackendWall} {
				res, err := ftparallel.Multiply(a, b, ftparallel.Options{
					Alg: alg, P: 9, F: pl.f, DFSSteps: pl.dfs, Faults: pl.faults,
					Machine: machine.Config{Backend: backend},
				})
				if err != nil {
					t.Fatalf("%s: %v", backend, err)
				}
				if res.Product.ToBig().Cmp(want) != 0 {
					t.Fatalf("%s: product differs from math/big", backend)
				}
				// The wall backend's counts must match the simulator's
				// (accounting is a backend-independent decorator); the
				// simulator's must match the seed.
				got := goldenCounts{res.Report.F, res.Report.BW, res.Report.L}
				if got != pl.golden {
					t.Errorf("%s: F/BW/L = %d/%d/%d, golden %d/%d/%d",
						backend, got.f, got.bw, got.l,
						pl.golden.f, pl.golden.bw, pl.golden.l)
				}
			}
		})
	}
}

// TestBackendsAgreeOnPlainParallel pins the fault-free parallel engine the
// same way: identical product on both backends, seed counts on the simulator.
func TestBackendsAgreeOnPlainParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := bigint.Random(rng, 1<<13)
	b := bigint.Random(rng, 1<<13)
	want := new(big.Int).Mul(a.ToBig(), b.ToBig())
	alg := toom.MustNew(2)
	golden := goldenCounts{7691, 160, 12}

	for _, backend := range []machine.Backend{machine.BackendSim, machine.BackendWall} {
		res, err := parallel.Multiply(a, b, parallel.Options{
			Alg: alg, P: 9, Machine: machine.Config{Backend: backend},
		})
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		if res.Product.ToBig().Cmp(want) != 0 {
			t.Fatalf("%s: product differs from math/big", backend)
		}
		got := goldenCounts{res.Report.F, res.Report.BW, res.Report.L}
		if got != golden {
			t.Errorf("%s: F/BW/L = %d/%d/%d, golden %d/%d/%d",
				backend, got.f, got.bw, got.l, golden.f, golden.bw, golden.l)
		}
	}
}
