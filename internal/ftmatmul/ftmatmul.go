// Package ftmatmul multiplies integer matrices fault-tolerantly on the
// generic ftengine execution core, proving the engine seam with a second
// algorithm family: where the Toom tier (internal/ftparallel) protects its
// shards with a linear erasure code, this tier uses the two-distinct-
// algorithms scheme — the same 2×2 block product is computed simultaneously
// by the 8 standard block multiplications AND by Strassen's 7 products, on
// 15 ranks total. Any single fail-stop kills at most one product, leaving
// the other algorithm's full set intact, so the exact product is always
// decodable without replicating any single multiplication.
//
// Fault handling by phase:
//
//   - PhaseEval (input distribution): a victim rank is a replacement with
//     wiped memory. Standard ranks hold replicated tiles by construction —
//     rank (i,j,k) holds A[i][k] and B[k][j], each also held by exactly one
//     partner — so the victim refetches its pair from the partners, message
//     for message, and the run continues at full strength (no product is
//     lost). Strassen ranks hold no durable data before the broadcasts and
//     need no repair.
//   - PhaseMul (compute): the victim's product is gone. The survivors'
//     slot shares still contain a complete algorithm (all 8 standard
//     products, or all 7 Strassen products), and Decode assembles whichever
//     family is intact.
//
// Matrix tiles travel the same tagged-limb channels as the integer tier's
// digits: a tile is flattened row-major to a machine.Ints vector
// (mat.IntMat.Flat) and moved with the existing collective.Broadcast — no
// second collective implementation.
package ftmatmul

import (
	"fmt"

	"repro/internal/bigint"
	"repro/internal/collective"
	"repro/internal/ftengine"
	"repro/internal/machine"
	"repro/internal/mat"
)

// Tile indices: tiles[0..3] are A's 2×2 blocks row-major, tiles[4..7] are
// B's. A[i][k] lives at 2i+k; B[k][j] lives at 4+2k+j.
const (
	tA00 = iota
	tA01
	tA10
	tA11
	tB00
	tB01
	tB10
	tB11
	numTiles
)

var tileNames = [numTiles]string{"A00", "A01", "A10", "A11", "B00", "B01", "B10", "B11"}

// Standard ranks 0..7: rank 4i+2j+k computes A[i][k]·B[k][j], one of the two
// terms of C[i][j]. Strassen ranks 8..14: rank 8+t computes M_{t+1}.
const (
	numStandard = 8
	numStrassen = 7
	numRanks    = numStandard + numStrassen
)

// aTileOf / bTileOf give the tile pair a standard rank holds after Shard.
func aTileOf(r int) int { i, k := (r>>2)&1, r&1; return 2*i + k }
func bTileOf(r int) int { j, k := (r>>1)&1, r&1; return tB00 + 2*k + j }

// tileOwner is the standard rank whose shard carries each tile's root copy
// for the broadcasts: A[i][k] → rank (i,0,k) = 4i+k; B[k][j] → rank
// (0,j,k) = 2j+k.
var tileOwner = [numTiles]int{
	tA00: 0, tA01: 1, tA10: 4, tA11: 5,
	tB00: 0, tB01: 2, tB10: 1, tB11: 3,
}

// term is one signed tile in a Strassen operand combination.
type term struct {
	tile int
	sign int
}

// strassenOps lists Strassen's seven products M1..M7 over the 2×2 blocks:
//
//	M1 = (A00+A11)(B00+B11)   M2 = (A10+A11)·B00   M3 = A00·(B01−B11)
//	M4 = A11·(B10−B00)        M5 = (A00+A01)·B11   M6 = (A10−A00)(B00+B01)
//	M7 = (A01−A11)(B10+B11)
var strassenOps = [numStrassen]struct{ a, b []term }{
	{a: []term{{tA00, 1}, {tA11, 1}}, b: []term{{tB00, 1}, {tB11, 1}}},
	{a: []term{{tA10, 1}, {tA11, 1}}, b: []term{{tB00, 1}}},
	{a: []term{{tA00, 1}}, b: []term{{tB01, 1}, {tB11, -1}}},
	{a: []term{{tA11, 1}}, b: []term{{tB10, 1}, {tB00, -1}}},
	{a: []term{{tA00, 1}, {tA01, 1}}, b: []term{{tB11, 1}}},
	{a: []term{{tA10, 1}, {tA00, -1}}, b: []term{{tB00, 1}, {tB01, 1}}},
	{a: []term{{tA01, 1}, {tA11, -1}}, b: []term{{tB10, 1}, {tB11, 1}}},
}

// tileGroups precomputes each tile's broadcast group: the owning standard
// rank first (root), then the Strassen ranks whose operands reference the
// tile, in rank order.
func tileGroups() [numTiles]collective.Group {
	var groups [numTiles]collective.Group
	for t := 0; t < numTiles; t++ {
		groups[t] = collective.Group{tileOwner[t]}
	}
	for s, op := range strassenOps {
		rank := numStandard + s
		seen := map[int]bool{}
		for _, tm := range append(append([]term{}, op.a...), op.b...) {
			if !seen[tm.tile] {
				seen[tm.tile] = true
				groups[tm.tile] = append(groups[tm.tile], rank)
			}
		}
	}
	return groups
}

// workload implements ftengine.Workload for the 15-rank two-algorithm
// product of two even n×n matrices (n = 2m).
type workload struct {
	m      int                    // tile dimension
	tiles  [numTiles][]bigint.Int // host-side flattened tiles, for Shard
	groups [numTiles]collective.Group
}

// Shard gives every standard rank its replicated tile pair; Strassen ranks
// hold nothing durable before the broadcasts.
func (w *workload) Shard(rank int) []bigint.Int {
	if rank >= numStandard {
		return nil
	}
	return shardPair(&w.tiles, rank)
}

// Step is the SPMD body: refetch wiped shards from replica partners, move
// tiles to the Strassen ranks over broadcasts, multiply, and cross the
// product barrier to learn which products died.
func (w *workload) Step(p *machine.Proc, rk *ftengine.Rank) (ftengine.Slots, error) {
	r := p.ID()
	m2 := w.m * w.m

	var myA, myB []bigint.Int
	if r < numStandard {
		if data := rk.Ctx.Data; len(data) == 2*m2 {
			myA, myB = data[:m2], data[m2:]
		}
	}
	// A rank named in the eval-barrier fault events is a replacement with
	// wiped memory: drop whatever the closure still holds before repairing.
	for _, ev := range rk.EvalEvents {
		if ev.Proc == r {
			myA, myB = nil, nil
		}
	}
	if err := w.refetch(p, rk.EvalEvents, &myA, &myB); err != nil {
		return nil, err
	}

	// Tile distribution: one broadcast per tile, owner at the root, the
	// Strassen ranks that consume the tile downstream. Fixed tile order
	// keeps the schedule deterministic on every backend.
	var have [numTiles][]bigint.Int
	if r < numStandard {
		have[aTileOf(r)], have[bTileOf(r)] = myA, myB
	}
	for t := 0; t < numTiles; t++ {
		g := w.groups[t]
		if g.Index(r) < 0 {
			continue
		}
		var mine machine.Ints
		if r == tileOwner[t] {
			mine = machine.Ints(have[t])
		}
		got, err := collective.Broadcast(p, g, 0, "mm/tile/"+tileNames[t], mine)
		if err != nil {
			return nil, err
		}
		have[t] = got
	}

	// Compute this rank's product: a plain block product on the standard
	// ranks, a Strassen product on signed tile combinations above.
	var prod []bigint.Int
	if r < numStandard {
		prod = tileMul(p, w.m, myA, myB)
	} else {
		op := strassenOps[r-numStandard]
		left := comboEval(p, m2, op.a, &have)
		right := comboEval(p, m2, op.b, &have)
		prod = tileMul(p, w.m, left, right)
	}

	ev, err := p.Barrier(ftengine.PhaseMul)
	if err != nil {
		return nil, err
	}
	lost := false
	for _, f := range ev {
		rk.DeadSeen[f.Proc] = true
		if f.Proc == r {
			lost = true
		}
	}
	if lost {
		// This rank is the replacement of a compute-phase victim: its
		// product died with its predecessor and is not reported. Decode
		// falls back to the other algorithm family.
		return ftengine.Slots{}, nil
	}
	return ftengine.Slots{r: prod}, nil
}

// refetch repairs eval-phase shard loss by replication: the victim's tile
// pair is re-sent by the two partner ranks that hold the same tiles —
// A[i][k] by rank (i,1−j,k), B[k][j] by rank (1−i,j,k). Strassen victims
// hold no shard and need nothing.
func (w *workload) refetch(p *machine.Proc, ev []machine.FaultEvent, myA, myB *[]bigint.Int) error {
	r := p.ID()
	for _, f := range ev {
		v := f.Proc
		if v >= numStandard {
			continue
		}
		i, j, k := (v>>2)&1, (v>>1)&1, v&1
		partnerA := i<<2 | (1-j)<<1 | k
		partnerB := (1-i)<<2 | j<<1 | k
		tagA := fmt.Sprintf("mm/refetch/A/%d", v)
		tagB := fmt.Sprintf("mm/refetch/B/%d", v)
		switch r {
		case v:
			gotA, err := p.RecvInts(partnerA, tagA)
			if err != nil {
				return err
			}
			gotB, err := p.RecvInts(partnerB, tagB)
			if err != nil {
				return err
			}
			*myA, *myB = gotA, gotB
		case partnerA:
			if err := p.Send(v, tagA, machine.Ints(*myA)); err != nil {
				return err
			}
		case partnerB:
			if err := p.Send(v, tagB, machine.Ints(*myB)); err != nil {
				return err
			}
		}
	}
	return nil
}

// tileMul is the classical m×m block product over flattened tiles, charging
// the cost model word-for-word like the schoolbook tier: each scalar product
// costs the product of the operands' word lengths, each accumulation the
// words of the sum it touches.
func tileMul(p *machine.Proc, m int, a, b []bigint.Int) []bigint.Int {
	out := make([]bigint.Int, m*m)
	for i := range out {
		out[i] = bigint.Zero()
	}
	var work int64
	for i := 0; i < m; i++ {
		for k := 0; k < m; k++ {
			aik := a[i*m+k]
			if aik.IsZero() {
				continue
			}
			for j := 0; j < m; j++ {
				bkj := b[k*m+j]
				if bkj.IsZero() {
					continue
				}
				work += wordsOf(aik) * wordsOf(bkj)
				out[i*m+j] = out[i*m+j].Add(aik.Mul(bkj))
				work += wordsOf(out[i*m+j])
			}
		}
	}
	p.Work(work)
	return out
}

// comboEval forms a signed sum of tiles (a Strassen operand), charging one
// word-op per word touched. A single positive term aliases the tile.
func comboEval(p *machine.Proc, n int, terms []term, have *[numTiles][]bigint.Int) []bigint.Int {
	if len(terms) == 1 && terms[0].sign == 1 {
		return have[terms[0].tile]
	}
	out := make([]bigint.Int, n)
	for i := range out {
		out[i] = bigint.Zero()
	}
	var work int64
	for _, tm := range terms {
		tile := have[tm.tile]
		for i := 0; i < n; i++ {
			v := tile[i]
			if tm.sign < 0 {
				v = v.Neg()
			}
			out[i] = out[i].Add(v)
			work += wordsOf(out[i])
		}
	}
	p.Work(work)
	return out
}

func wordsOf(x bigint.Int) int64 {
	if l := int64(x.WordLen()); l > 0 {
		return l
	}
	return 1
}

// Decode assembles the product from whichever algorithm family survived:
// all 8 standard products if none died, else Strassen's 7. Both present is
// the fault-free case (standard wins, fewer adds); neither complete is
// undecodable and can only happen outside the single-fail-stop contract.
// Host-side read-out — the theorems do not charge result reassembly.
func (w *workload) Decode(dead []int, slots map[int][]bigint.Int) (map[int][]bigint.Int, error) {
	m2 := w.m * w.m
	standard := true
	for r := 0; r < numStandard; r++ {
		if len(slots[r]) != m2 {
			standard = false
			break
		}
	}
	if standard {
		return assembleStandard(func(idx int) []bigint.Int { return slots[idx] }), nil
	}
	for t := 0; t < numStrassen; t++ {
		if len(slots[numStandard+t]) != m2 {
			return nil, fmt.Errorf("ftmatmul: %w: dead ranks %v break both algorithm families", ftengine.ErrToleranceExceeded, dead)
		}
	}
	mProd := func(t int) []bigint.Int { return slots[numStandard+t-1] } // M1..M7
	out := map[int][]bigint.Int{}
	out[0] = addFlat(subFlat(addFlat(mProd(1), mProd(4)), mProd(5)), mProd(7))
	out[1] = addFlat(mProd(3), mProd(5))
	out[2] = addFlat(mProd(2), mProd(4))
	out[3] = addFlat(subFlat(addFlat(mProd(1), mProd(3)), mProd(2)), mProd(6))
	return out, nil
}

func addFlat(a, b []bigint.Int) []bigint.Int {
	out := make([]bigint.Int, len(a))
	for i := range a {
		out[i] = a[i].Add(b[i])
	}
	return out
}

func subFlat(a, b []bigint.Int) []bigint.Int {
	out := make([]bigint.Int, len(a))
	for i := range a {
		out[i] = a[i].Sub(b[i])
	}
	return out
}

// Recombine stitches the four decoded C tiles into the flat n×n product
// (unmetered host-side read-out, like the Toom tier's recomposition).
func (w *workload) Recombine(slots map[int][]bigint.Int) ([]bigint.Int, error) {
	return stitch(w.m, slots)
}

// Scheme selects the parallel multiplication scheme — the three rows of the
// matrix analogue of Table 1.
type Scheme string

const (
	// SchemeTwoAlg (the default) is the fault-tolerant scheme: 8 standard
	// block products plus Strassen's 7 on 15 ranks; tolerates any single
	// fail-stop with 7 extra processors.
	SchemeTwoAlg Scheme = ""
	// SchemePlain is the baseline: the 8 standard block products alone, no
	// fault tolerance.
	SchemePlain Scheme = "plain"
	// SchemeReplicated duplicates every standard product on a twin rank
	// (16 ranks): tolerates any single fail-stop with 8 extra processors —
	// the replication row the two-algorithms scheme undercuts.
	SchemeReplicated Scheme = "replicated"
)

// Options configures one fault-tolerant matrix multiplication.
type Options struct {
	// Machine configures the backend, α/β/γ, and memory; P is overridden
	// with the scheme's rank count.
	Machine machine.Config
	// Faults is the fail-stop injection plan. The two-algorithms and
	// replicated schemes tolerate any single fail-stop per run.
	Faults []machine.Fault
	// Scheme selects the parallel scheme (default SchemeTwoAlg).
	Scheme Scheme
}

// Result reports one multiplication.
type Result struct {
	// C is the exact product.
	C *mat.IntMat
	// Report is the machine's F/BW/L accounting.
	Report *machine.Report
	// Dead lists the ranks whose products were lost to compute-phase
	// faults (eval-phase victims recover and do not appear).
	Dead []int
	// Recovered counts fault events repaired during the protected prologue.
	Recovered int
}

// Multiply computes A·B exactly on the fault-tolerant engine. Inputs of any
// conformable shape are zero-padded to the next even square for the 2×2
// tiling and the result is cropped back.
func Multiply(a, b *mat.IntMat, opts Options) (*Result, error) {
	if a.Cols() != b.Rows() {
		return nil, fmt.Errorf("ftmatmul: shape mismatch %dx%d · %dx%d", a.Rows(), a.Cols(), b.Rows(), b.Cols())
	}
	n := a.Rows()
	for _, d := range []int{a.Cols(), b.Cols()} {
		if d > n {
			n = d
		}
	}
	if n < 2 {
		n = 2
	}
	if n%2 != 0 {
		n++
	}
	m := n / 2

	var tiles [numTiles][]bigint.Int
	pa := padSquare(a, n)
	pb := padSquare(b, n)
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			tiles[2*i+j] = pa.Block(i*m, j*m, m, m).Flat()
			tiles[tB00+2*i+j] = pb.Block(i*m, j*m, m, m).Flat()
		}
	}

	var wl ftengine.Workload
	var ranks int
	switch opts.Scheme {
	case SchemeTwoAlg:
		wl = &workload{m: m, tiles: tiles, groups: tileGroups()}
		ranks = numRanks
	case SchemePlain:
		wl = &plainWorkload{m: m, tiles: tiles}
		ranks = numStandard
	case SchemeReplicated:
		wl = &replWorkload{m: m, tiles: tiles}
		ranks = 2 * numStandard
	default:
		return nil, fmt.Errorf("ftmatmul: unknown scheme %q", opts.Scheme)
	}
	lay := ftengine.FlatLayout(ranks)
	res, err := ftengine.Run(wl, ftengine.RunOptions{
		Layout:  lay,
		Coder:   ftengine.NewCoder(lay, nil, 0, 0),
		Machine: opts.Machine,
		Faults:  opts.Faults,
	})
	if err != nil {
		return nil, err
	}
	c := mat.IntMatFromFlat(n, n, res.Output).Block(0, 0, a.Rows(), b.Cols())
	return &Result{C: c, Report: res.Report, Dead: res.Dead, Recovered: res.Recovered}, nil
}

func padSquare(m *mat.IntMat, n int) *mat.IntMat {
	if m.Rows() == n && m.Cols() == n {
		return m
	}
	z := mat.NewIntMat(n, n)
	z.SetBlock(0, 0, m)
	return z
}
