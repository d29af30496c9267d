package ftmatmul

// variants.go implements the two comparison schemes of the matrix Table-1
// analogue on the same engine seam: the plain 8-rank block product (no fault
// tolerance — the baseline the overheads are measured against) and the
// 16-rank replicated product (the scheme the two-distinct-algorithms row
// undercuts by one processor while keeping the same fault coverage).

import (
	"fmt"

	"repro/internal/bigint"
	"repro/internal/ftengine"
	"repro/internal/machine"
)

// stitch assembles the four decoded C tiles into the flat 2m×2m product.
func stitch(m int, slots map[int][]bigint.Int) ([]bigint.Int, error) {
	n := 2 * m
	out := make([]bigint.Int, n*n)
	for ti := 0; ti < 2; ti++ {
		for tj := 0; tj < 2; tj++ {
			tile := slots[2*ti+tj]
			if len(tile) != m*m {
				return nil, fmt.Errorf("ftmatmul: C tile (%d,%d) has %d entries, want %d", ti, tj, len(tile), m*m)
			}
			for rr := 0; rr < m; rr++ {
				for cc := 0; cc < m; cc++ {
					out[(ti*m+rr)*n+tj*m+cc] = tile[rr*m+cc]
				}
			}
		}
	}
	return out, nil
}

// assembleStandard folds the 8 standard block products into the four C
// tiles: C[i][j] = P_{ij0} + P_{ij1}, with get mapping a product index to
// its surviving share.
func assembleStandard(get func(int) []bigint.Int) map[int][]bigint.Int {
	out := map[int][]bigint.Int{}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			out[2*i+j] = addFlat(get(4*i+2*j), get(4*i+2*j+1))
		}
	}
	return out
}

// shardPair returns the flattened (A tile, B tile) concatenation a standard
// product rank holds.
func shardPair(tiles *[numTiles][]bigint.Int, idx int) []bigint.Int {
	a, b := tiles[aTileOf(idx)], tiles[bTileOf(idx)]
	out := make([]bigint.Int, 0, len(a)+len(b))
	out = append(out, a...)
	return append(out, b...)
}

// plainWorkload is the baseline: the 8 standard block products with no
// redundancy. A victim's product is unrecoverable — Decode reports the loss
// instead of returning a wrong matrix.
type plainWorkload struct {
	m     int
	tiles [numTiles][]bigint.Int
}

// Shard gives each rank its tile pair.
func (w *plainWorkload) Shard(rank int) []bigint.Int {
	return shardPair(&w.tiles, rank)
}

// Step multiplies the rank's tile pair and crosses the product barrier.
// There is no recovery path: an eval-phase victim has nothing to compute
// from, a mul-phase victim's product is gone; both are recorded dead.
func (w *plainWorkload) Step(p *machine.Proc, rk *ftengine.Rank) (ftengine.Slots, error) {
	r := p.ID()
	m2 := w.m * w.m
	lost := false
	for _, f := range rk.EvalEvents {
		rk.DeadSeen[f.Proc] = true
		if f.Proc == r {
			lost = true
		}
	}
	var prod []bigint.Int
	if !lost {
		data := rk.Ctx.Data
		if len(data) != 2*m2 {
			return nil, fmt.Errorf("ftmatmul: rank %d shard has %d entries, want %d", r, len(data), 2*m2)
		}
		prod = tileMul(p, w.m, data[:m2], data[m2:])
	}
	ev, err := p.Barrier(ftengine.PhaseMul)
	if err != nil {
		return nil, err
	}
	for _, f := range ev {
		rk.DeadSeen[f.Proc] = true
		if f.Proc == r {
			lost = true
		}
	}
	if lost {
		return ftengine.Slots{}, nil
	}
	return ftengine.Slots{r: prod}, nil
}

// Decode requires every product: the plain scheme has no redundancy.
func (w *plainWorkload) Decode(dead []int, slots map[int][]bigint.Int) (map[int][]bigint.Int, error) {
	m2 := w.m * w.m
	for r := 0; r < numStandard; r++ {
		if len(slots[r]) != m2 {
			return nil, fmt.Errorf("ftmatmul: %w: plain scheme cannot recover dead ranks %v", ftengine.ErrToleranceExceeded, dead)
		}
	}
	return assembleStandard(func(idx int) []bigint.Int { return slots[idx] }), nil
}

// Recombine stitches the C tiles (host-side read-out).
func (w *plainWorkload) Recombine(slots map[int][]bigint.Int) ([]bigint.Int, error) {
	return stitch(w.m, slots)
}

// replWorkload duplicates every standard product on a twin rank: ranks r and
// r+8 compute the same block product, so any single fail-stop leaves a copy.
// This is the f·P-style replication row the two-algorithms scheme beats.
type replWorkload struct {
	m     int
	tiles [numTiles][]bigint.Int
}

// Shard gives rank r the tile pair of product r mod 8.
func (w *replWorkload) Shard(rank int) []bigint.Int {
	return shardPair(&w.tiles, rank%numStandard)
}

// Step multiplies the rank's tile pair; an eval-phase victim refetches its
// pair from its twin (which holds an identical shard) in one message.
func (w *replWorkload) Step(p *machine.Proc, rk *ftengine.Rank) (ftengine.Slots, error) {
	r := p.ID()
	m2 := w.m * w.m
	var data []bigint.Int
	if d := rk.Ctx.Data; len(d) == 2*m2 {
		data = d
	}
	for _, f := range rk.EvalEvents {
		if f.Proc == r {
			data = nil // replacement rank: the shard died with its predecessor
		}
	}
	for _, f := range rk.EvalEvents {
		v := f.Proc
		tw := v ^ numStandard
		tag := fmt.Sprintf("mmrepl/refetch/%d", v)
		switch r {
		case v:
			got, err := p.RecvInts(tw, tag)
			if err != nil {
				return nil, err
			}
			data = got
		case tw:
			if err := p.Send(v, tag, machine.Ints(data)); err != nil {
				return nil, err
			}
		}
	}
	if len(data) != 2*m2 {
		return nil, fmt.Errorf("ftmatmul: rank %d shard has %d entries, want %d", r, len(data), 2*m2)
	}
	prod := tileMul(p, w.m, data[:m2], data[m2:])
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
		return ftengine.Slots{}, nil
	}
	return ftengine.Slots{r: prod}, nil
}

// Decode takes each product from whichever copy survived.
func (w *replWorkload) Decode(dead []int, slots map[int][]bigint.Int) (map[int][]bigint.Int, error) {
	m2 := w.m * w.m
	pick := func(idx int) []bigint.Int {
		if s := slots[idx]; len(s) == m2 {
			return s
		}
		return slots[idx+numStandard]
	}
	for idx := 0; idx < numStandard; idx++ {
		if len(pick(idx)) != m2 {
			return nil, fmt.Errorf("ftmatmul: %w: both copies of product %d dead (ranks %v)", ftengine.ErrToleranceExceeded, idx, dead)
		}
	}
	return assembleStandard(pick), nil
}

// Recombine stitches the C tiles (host-side read-out).
func (w *replWorkload) Recombine(slots map[int][]bigint.Int) ([]bigint.Int, error) {
	return stitch(w.m, slots)
}
