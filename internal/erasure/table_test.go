package erasure

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/bigint"
	"repro/internal/mat"
)

// TestTableMinorsInvert checks every stored minor against its generator
// rows: Rows · G[surv] = Den · I, and DenLCM is a multiple of every Den.
func TestTableMinorsInvert(t *testing.T) {
	// Product-evaluation rows of the points 0, 1, -1, 2, ∞ at width 3.
	gen := [][]int64{{1, 0, 0}, {1, 1, 1}, {1, -1, 1}, {1, 2, 4}, {0, 0, 1}}
	tab, err := NewTable(gen)
	if err != nil {
		t.Fatal(err)
	}
	lcm, err := tab.DenLCM()
	if err != nil {
		t.Fatal(err)
	}
	for _, surv := range mat.Combinations(len(gen), 3) {
		m, err := tab.Minor(surv)
		if err != nil {
			t.Fatal(err)
		}
		if lcm%m.Den != 0 {
			t.Errorf("DenLCM %d not a multiple of %d", lcm, m.Den)
		}
		for v := 0; v < 3; v++ {
			for c := 0; c < 3; c++ {
				var sum int64
				for i, r := range surv {
					sum += m.Rows[v][i] * gen[r][c]
				}
				want := int64(0)
				if v == c {
					want = m.Den
				}
				if sum != want {
					t.Fatalf("survivors %v: (Rows·G)[%d][%d] = %d, want %d", surv, v, c, sum, want)
				}
			}
		}
	}
	for _, bad := range [][]int{{0, 1}, {2, 1, 0}, {0, 1, 5}, {0, 0, 1}} {
		if _, err := tab.Minor(bad); err == nil {
			t.Errorf("Minor(%v) should fail", bad)
		}
	}
	if _, err := NewTable([][]int64{{1, 1}, {2, 2}}); err == nil {
		t.Error("singular generator should be rejected")
	}
}

// TestTableConcurrent decodes every erasure pattern of one shared code from
// many goroutines at once: the table is immutable, so this is race-free.
func TestTableConcurrent(t *testing.T) {
	c, err := New(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(57))
	data := randWord(rng, 4, 3, 200)
	red, _ := c.Encode(data)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			lost := []int{g % 4, (g + 1 + g/4) % 4}
			surviving := map[int][]bigint.Int{}
			for l := range data {
				if l != lost[0] && l != lost[1] {
					surviving[l] = data[l]
				}
			}
			rec, err := c.Decode(surviving, map[int][]bigint.Int{0: red[0], 1: red[1]})
			if err != nil {
				errs <- err
				return
			}
			for _, l := range lost {
				for j := range data[l] {
					if !rec[l][j].Equal(data[l][j]) {
						t.Errorf("goroutine %d: letter %d not restored", g, l)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestWideCodes builds column codes as wide as a P=81, k=2 grid column
// (K=27). With F=2 every minor fits int64 though the lcm of all their
// denominators does not, and a two-letter erasure decodes exactly. With
// F=3 some three-letter minors overflow int64: construction still succeeds
// and only decoding through such a minor errors.
func TestWideCodes(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	data := randWord(rng, 27, 2, 300)
	for _, tc := range []struct {
		f        int
		lost     []int
		overflow bool
	}{
		{2, []int{3, 26}, false},
		{2, []int{25, 26}, false},
		{3, []int{0, 1, 2}, false},
		{3, []int{24, 25, 26}, true},
	} {
		c, err := New(27, tc.f)
		if err != nil {
			t.Fatalf("New(27, %d): %v", tc.f, err)
		}
		red, _ := c.Encode(data)
		redundancy := map[int][]bigint.Int{}
		for i := range red {
			redundancy[i] = red[i]
		}
		surviving := map[int][]bigint.Int{}
		for l := range data {
			surviving[l] = data[l]
		}
		for _, l := range tc.lost {
			delete(surviving, l)
		}
		rec, err := c.Decode(surviving, redundancy)
		if tc.overflow {
			if err == nil || !strings.Contains(err.Error(), "overflows int64") {
				t.Errorf("F=%d lost %v: want an overflow error, got %v", tc.f, tc.lost, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("F=%d lost %v: %v", tc.f, tc.lost, err)
		}
		for _, l := range tc.lost {
			for j := range data[l] {
				if !rec[l][j].Equal(data[l][j]) {
					t.Fatalf("F=%d lost %v: letter %d not restored", tc.f, tc.lost, l)
				}
			}
		}
	}
	c, _ := New(27, 2)
	if _, err := c.table.DenLCM(); err == nil {
		t.Error("DenLCM over every K=27, F=2 minor should overflow int64")
	}
}
