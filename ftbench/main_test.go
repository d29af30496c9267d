package main

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"os"
	"reflect"
	"testing"
	"time"

	ftmul "repro"
	"repro/internal/machine"
)

// small is a fast integer workload for tests: the ft-int shape at 2^12 bits.
var small = spec{name: "small", bits: 1 << 12, backend: machine.BackendSim}

// An over-budget plan (two multiplication-phase faults at f = 1) must be
// counted as a failed operation, while the round goes on and the next
// operation is measured.
func TestOverBudgetPlanCountsAsFailed(t *testing.T) {
	overBudget := []ftmul.Fault{{Proc: 0, Phase: ftmul.PhaseMul}, {Proc: 3, Phase: ftmul.PhaseMul}}
	var acc opSamples
	if !acc.runRound(small, [][]ftmul.Fault{overBudget, nil}, rand.New(rand.NewSource(1))) {
		t.Fatal("round aborted; an over-budget plan is a failure, not a deadline miss")
	}
	if acc.attempted != 2 || acc.failed != 1 || len(acc.lat) != 1 {
		t.Fatalf("attempted=%d failed=%d samples=%d, want 2, 1, 1 (errors: %v)", acc.attempted, acc.failed, len(acc.lat), acc.errs)
	}
}

func TestDeadlineMissIsAnError(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	_, err := withDeadline(10*time.Millisecond, func() (opReport, error) {
		<-release
		return opReport{}, nil
	})
	if !errors.Is(err, errDeadline) {
		t.Fatalf("err = %v, want errDeadline", err)
	}
}

func TestPanicIsAnError(t *testing.T) {
	_, err := withDeadline(time.Second, func() (opReport, error) { panic("boom") })
	if err == nil {
		t.Fatal("a panicking operation returned no error")
	}
}

// Each round of ft-int-faults holds every rank × phase plan exactly once,
// and the same seed gives the same rounds and operands.
func TestRoundsAreSeededPermutations(t *testing.T) {
	s, _ := specByName("ft-int-faults")
	r1, r2 := s.round(rand.New(rand.NewSource(7))), s.round(rand.New(rand.NewSource(7)))
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("same seed, different rounds")
	}
	seen := map[ftmul.Fault]bool{}
	for _, plan := range r1 {
		if len(plan) != 1 || seen[plan[0]] {
			t.Fatalf("plan %v repeated or not a single fault", plan)
		}
		seen[plan[0]] = true
	}
	if len(seen) != ranks*3 {
		t.Fatalf("round has %d plans, want %d", len(seen), ranks*3)
	}
	a := small.newInput(rand.New(rand.NewSource(3)), nil)
	b := small.newInput(rand.New(rand.NewSource(3)), nil)
	if a.a.Cmp(b.a) != 0 || a.b.Cmp(b.b) != 0 || a.a.BitLen() != small.bits {
		t.Fatal("operands are not a function of the seed, or have the wrong size")
	}
}

// The layer ladder's own checks pass on small operands of both families.
func TestLayersVerify(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	intIn := small.newInput(rng, nil)
	if err := intLayers(nil, 0, intIn); err != nil {
		t.Fatal(err)
	}
	m := spec{matrix: true, bits: 128, dim: 6}
	matIn := m.newInput(rng, nil)
	if err := matLayers(nil, 0, matIn); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		s  spec
		in *input
	}{{small, intIn}, {m, matIn}} {
		vec, err := shareVector(c.s, c.in)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range []machine.Backend{machine.BackendSim, machine.BackendWall} {
			if err := commLayers(nil, 0, b, vec); err != nil {
				t.Fatalf("%s: %v", b, err)
			}
		}
	}
}

// The metric and workload tables match BENCHMARK.json.
func TestTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, s := range specs {
		if !s.undeclared {
			declared = append(declared, s.name)
		}
	}
	if len(b.Workloads) != len(declared) {
		t.Fatalf("%d workloads declared, %d defined as declared", len(b.Workloads), len(declared))
	}
	for i, w := range b.Workloads {
		if w.Name != declared[i] {
			t.Errorf("workload %d: declared %q, defined %q", i, w.Name, declared[i])
		}
	}
	for _, c := range []struct {
		declared []struct{ Name, Unit string }
		defined  []metricDef
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.declared) != len(c.defined) {
			t.Fatalf("%d metrics declared, %d defined", len(c.declared), len(c.defined))
		}
		for i, d := range c.declared {
			if d.Name != c.defined[i].name || d.Unit != c.defined[i].unit {
				t.Errorf("metric %d: declared %s %s, defined %s %s", i, d.Name, d.Unit, c.defined[i].name, c.defined[i].unit)
			}
		}
	}
}

func TestPercentile(t *testing.T) {
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-9*math.Max(1, math.Abs(want)) }
	for _, c := range []struct{ x, a, b, want float64 }{
		{0.3, 1, 1, 0.3},
		{0.3, 2, 1, 0.09},
		{0.5, 7.5, 7.5, 0.5},
		{0.9, 1, 3, 1 - 0.001},
	} {
		if got := regIncBeta(c.x, c.a, c.b); !near(got, c.want) {
			t.Errorf("I_%g(%g, %g) = %g, want %g", c.x, c.a, c.b, got, c.want)
		}
	}
	if got := percentile([]float64{4, 4, 4, 4}, 85); !near(got, 4) {
		t.Errorf("percentile of a constant sample = %g", got)
	}
	if got := median([]float64{5, 1, 3, 2, 4}); !near(got, 3) {
		t.Errorf("median of a symmetric sample = %g, want 3", got)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	if got := percentile(xs, 90); got < 88 || got > 91 {
		t.Errorf("p90 of 0..99 = %g", got)
	}
}
