package main

import (
	"math/rand"
	"testing"

	"repro/internal/bigint"
)

// TestTablesGolden pins every row that `experiments -exp table1` and
// `-exp table2` print: F, BW, L, modeled time, extra processors and the
// correctness verdict, at the command's defaults (seed 1, 2^16-bit operands,
// simulator backend). The paper's Table 1/2 counts must stay bit-identical
// across refactors; any drift here is a cost-model change.
func TestTablesGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := bigint.Random(rng, 1<<16)
	b := bigint.Random(rng, 1<<16)

	golden := []struct {
		k, p, f, dfs int
		name         string
		fl, bw, l    int64
		time         float64
		extra        int
		ok           bool
	}{
		// table1
		{2, 9, 1, 0, "Parallel Toom-Cook", 184892, 1160, 12, 208492, 0, true},
		{2, 9, 1, 0, "Toom-Cook w/ Replication", 184892, 1165, 17, 213542, 9, true},
		{2, 9, 1, 0, "Fault-Tolerant Toom-Cook", 186168, 1868, 25, 238808, 6, true},
		{2, 9, 2, 0, "Parallel Toom-Cook", 184892, 1160, 12, 208492, 0, true},
		{2, 9, 2, 0, "Toom-Cook w/ Replication", 184892, 1165, 17, 213542, 18, true},
		{2, 9, 2, 0, "Fault-Tolerant Toom-Cook", 187786, 2567, 31, 253422, 12, true},
		{2, 27, 1, 0, "Parallel Toom-Cook", 70864, 760, 18, 96464, 0, true},
		{2, 27, 1, 0, "Toom-Cook w/ Replication", 70864, 766, 24, 102524, 27, true},
		{2, 27, 1, 0, "Fault-Tolerant Toom-Cook", 71304, 1018, 37, 127284, 12, true},
		{3, 25, 1, 0, "Parallel Toom-Cook", 58208, 640, 24, 88608, 0, true},
		{3, 25, 1, 0, "Toom-Cook w/ Replication", 58208, 646, 30, 94668, 25, true},
		{3, 25, 1, 0, "Fault-Tolerant Toom-Cook", 58958, 928, 41, 114118, 10, true},
		// table2
		{2, 9, 1, 1, "Parallel Toom-Cook", 193390, 1800, 36, 250817, 0, true},
		{2, 9, 1, 1, "Toom-Cook w/ Replication", 193390, 1805, 41, 255867, 9, true},
		{2, 9, 1, 1, "Fault-Tolerant Toom-Cook", 196030, 2788, 65, 304917, 6, true},
		{2, 9, 1, 2, "Parallel Toom-Cook", 211522, 2880, 108, 351888, 0, true},
		{2, 9, 1, 2, "Toom-Cook w/ Replication", 211522, 2885, 113, 356938, 9, true},
		{2, 9, 1, 2, "Fault-Tolerant Toom-Cook", 215490, 4364, 185, 470016, 6, true},
		{2, 27, 1, 1, "Parallel Toom-Cook", 72457, 1368, 54, 141116, 0, true},
		{2, 27, 1, 1, "Toom-Cook w/ Replication", 72457, 1374, 60, 147176, 27, true},
		{2, 27, 1, 1, "Fault-Tolerant Toom-Cook", 73513, 1794, 97, 204608, 12, true},
	}

	for i := 0; i < len(golden); i += 3 {
		g := golden[i]
		rows, err := tableRows(a, b, g.k, g.p, g.f, g.dfs)
		if err != nil {
			t.Fatalf("k=%d P=%d f=%d dfs=%d: %v", g.k, g.p, g.f, g.dfs, err)
		}
		if len(rows) != 3 {
			t.Fatalf("k=%d P=%d f=%d dfs=%d: %d rows, want 3", g.k, g.p, g.f, g.dfs, len(rows))
		}
		for j, r := range rows {
			w := golden[i+j]
			if r.name != w.name || r.f != w.fl || r.bw != w.bw || r.l != w.l ||
				r.time != w.time || r.extraProcs != w.extra || r.correct != w.ok {
				t.Errorf("k=%d P=%d f=%d dfs=%d %s: F/BW/L/time/extra/ok = %d/%d/%d/%v/%d/%v, golden %s %d/%d/%d/%v/%d/%v",
					w.k, w.p, w.f, w.dfs, r.name, r.f, r.bw, r.l, r.time, r.extraProcs, r.correct,
					w.name, w.fl, w.bw, w.l, w.time, w.extra, w.ok)
			}
		}
	}
}
