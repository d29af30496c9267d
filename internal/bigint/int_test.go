package bigint

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func randInt(rng *rand.Rand, maxBits int) Int {
	bits := 1 + rng.Intn(maxBits)
	x := Random(rng, bits)
	if rng.Intn(2) == 0 {
		x = x.Neg()
	}
	if rng.Intn(16) == 0 {
		return Int{}
	}
	return x
}

func TestFromInt64RoundTrip(t *testing.T) {
	cases := []int64{0, 1, -1, 2, -2, 63, -63, 1 << 62, -(1 << 62), 9223372036854775807, -9223372036854775808}
	for _, v := range cases {
		x := FromInt64(v)
		got, ok := x.Int64()
		if !ok || got != v {
			t.Errorf("FromInt64(%d).Int64() = %d, %v", v, got, ok)
		}
	}
}

func TestInt64Overflow(t *testing.T) {
	x := FromUint64(1 << 63) // 2^63 does not fit in int64
	if _, ok := x.Int64(); ok {
		t.Errorf("2^63 should not fit in int64")
	}
	if v, ok := x.Neg().Int64(); !ok || v != -(1<<62)*2 {
		t.Errorf("-2^63 should fit in int64, got %d, %v", v, ok)
	}
	y := FromUint64(1<<63 + 1).Neg()
	if _, ok := y.Int64(); ok {
		t.Errorf("-(2^63+1) should not fit in int64")
	}
}

func TestAddSubAgainstBig(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		x, y := randInt(rng, 512), randInt(rng, 512)
		want := new(big.Int).Add(x.ToBig(), y.ToBig())
		if got := x.Add(y).ToBig(); got.Cmp(want) != 0 {
			t.Fatalf("Add(%v, %v) = %v, want %v", x, y, got, want)
		}
		want.Sub(x.ToBig(), y.ToBig())
		if got := x.Sub(y).ToBig(); got.Cmp(want) != 0 {
			t.Fatalf("Sub(%v, %v) = %v, want %v", x, y, got, want)
		}
	}
}

func TestMulAgainstBig(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 300; i++ {
		x, y := randInt(rng, 768), randInt(rng, 768)
		want := new(big.Int).Mul(x.ToBig(), y.ToBig())
		if got := x.Mul(y).ToBig(); got.Cmp(want) != 0 {
			t.Fatalf("Mul(%v, %v) = %v, want %v", x, y, got, want)
		}
	}
}

func TestMulInt64(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		x := randInt(rng, 256)
		v := rng.Int63n(1<<40) - 1<<39
		want := new(big.Int).Mul(x.ToBig(), big.NewInt(v))
		if got := x.MulInt64(v).ToBig(); got.Cmp(want) != 0 {
			t.Fatalf("MulInt64(%v, %d) = %v, want %v", x, v, got, want)
		}
	}
}

func TestDivExactInt64(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	divisors := []int64{1, 2, 3, 6, 24, -2, -3, 120, 720}
	for i := 0; i < 200; i++ {
		q := randInt(rng, 300)
		d := divisors[rng.Intn(len(divisors))]
		x := q.MulInt64(d)
		if got := x.DivExactInt64(d); !got.Equal(q) {
			t.Fatalf("DivExactInt64((%v)*%d, %d) = %v, want %v", q, d, d, got, q)
		}
	}
}

// TestDivExactInt64ByUnit checks the ±1 fast path: the quotient is x or −x
// and shares x's limbs (no division pass, no allocation).
func TestDivExactInt64ByUnit(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, x := range []Int{Random(rng, 500), Random(rng, 64).Neg(), {}} {
		for _, v := range []int64{1, -1} {
			want := x
			if v < 0 {
				want = x.Neg()
			}
			got := x.DivExactInt64(v)
			if !got.Equal(want) {
				t.Fatalf("DivExactInt64(%v, %d) = %v, want %v", x, v, got, want)
			}
			if !x.IsZero() && &got.abs[0] != &x.abs[0] {
				t.Errorf("DivExactInt64(x, %d) copied the limbs", v)
			}
		}
		if n := testing.AllocsPerRun(10, func() { x.DivExactInt64(-1) }); n != 0 {
			t.Errorf("DivExactInt64(x, -1) allocates %.0f times", n)
		}
	}
}

func TestDivExactPanicsOnInexact(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on inexact division")
		}
	}()
	FromInt64(7).DivExactInt64(2)
}

func TestQuoRemWord(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		x := Random(rng, 1+rng.Intn(400))
		w := rng.Uint64()
		if w == 0 {
			w = 1
		}
		q, r := x.QuoRemWord(w)
		back := q.MulInt64(1).Mul(FromUint64(w)).Add(FromUint64(r))
		if !back.Equal(x) {
			t.Fatalf("QuoRemWord round trip failed: x=%v w=%d", x, w)
		}
		if r >= w {
			t.Fatalf("remainder %d >= divisor %d", r, w)
		}
	}
}

func TestShifts(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 300; i++ {
		x := randInt(rng, 300)
		s := uint(rng.Intn(200))
		want := new(big.Int).Lsh(x.ToBig(), s)
		if got := x.Shl(s).ToBig(); got.Cmp(want) != 0 {
			t.Fatalf("Shl(%v, %d) mismatch", x, s)
		}
		wantAbs := new(big.Int).Rsh(new(big.Int).Abs(x.ToBig()), s)
		gotAbs := new(big.Int).Abs(x.Shr(s).ToBig())
		if gotAbs.Cmp(wantAbs) != 0 {
			t.Fatalf("Shr(%v, %d) magnitude mismatch", x, s)
		}
	}
}

func TestExtract(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		x := Random(rng, 1+rng.Intn(500))
		lo := rng.Intn(300)
		width := 1 + rng.Intn(200)
		want := new(big.Int).Rsh(x.ToBig(), uint(lo))
		mask := new(big.Int).Lsh(big.NewInt(1), uint(width))
		mask.Sub(mask, big.NewInt(1))
		want.And(want, mask)
		if got := x.Extract(lo, width).ToBig(); got.Cmp(want) != 0 {
			t.Fatalf("Extract(%v, %d, %d) = %v want %v", x, lo, width, got, want)
		}
	}
}

func TestStringAndParse(t *testing.T) {
	cases := []string{"0", "1", "-1", "9", "10", "-10", "18446744073709551616",
		"123456789012345678901234567890123456789012345678901234567890",
		"-999999999999999999999999999999999999999"}
	for _, s := range cases {
		x, err := ParseInt(s)
		if err != nil {
			t.Fatalf("ParseInt(%q): %v", s, err)
		}
		if got := x.String(); got != s {
			t.Errorf("round trip %q -> %q", s, got)
		}
		want, _ := new(big.Int).SetString(s, 10)
		if x.ToBig().Cmp(want) != 0 {
			t.Errorf("ParseInt(%q) != big.Int value", s)
		}
	}
	if _, err := ParseInt(""); err == nil {
		t.Error("expected error for empty string")
	}
	if _, err := ParseInt("12x4"); err == nil {
		t.Error("expected error for invalid digit")
	}
	if _, err := ParseInt("-"); err == nil {
		t.Error("expected error for bare sign")
	}
}

func TestBitLenAndBit(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 200; i++ {
		bits := 1 + rng.Intn(500)
		x := Random(rng, bits)
		if got := x.BitLen(); got != bits {
			t.Fatalf("Random(%d bits).BitLen() = %d", bits, got)
		}
		b := x.ToBig()
		for j := 0; j < bits+10; j += 7 {
			if got, want := x.Bit(j), b.Bit(j); got != want {
				t.Fatalf("Bit(%d) = %d, want %d", j, got, want)
			}
		}
	}
	if Zero().BitLen() != 0 {
		t.Error("Zero().BitLen() != 0")
	}
}

func TestFromLimbsAndLimbs(t *testing.T) {
	x := FromLimbs(false, []uint64{5, 0, 7, 0, 0})
	if got := x.WordLen(); got != 3 {
		t.Fatalf("normalization failed, WordLen = %d", got)
	}
	l := x.Limbs()
	if len(l) != 3 || l[0] != 5 || l[2] != 7 {
		t.Fatalf("Limbs() = %v", l)
	}
	l[0] = 99 // must not alias
	if x.Limbs()[0] != 5 {
		t.Fatal("Limbs() aliases internal storage")
	}
	if !FromLimbs(true, nil).IsZero() {
		t.Fatal("FromLimbs(true, nil) should be zero")
	}
	if FromLimbs(true, []uint64{0, 0}).Sign() != 0 {
		t.Fatal("negative zero escaped normalization")
	}
}

func TestSum(t *testing.T) {
	if !Sum().IsZero() {
		t.Error("empty Sum should be zero")
	}
	got := Sum(FromInt64(1), FromInt64(-5), FromInt64(10))
	if v, _ := got.Int64(); v != 6 {
		t.Errorf("Sum = %v, want 6", got)
	}
}

// Property: (Int, Add, Mul) is a commutative ring.
func TestRingAxiomsQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	gen := func() Int { return randInt(rng, 256) }
	cfg := &quick.Config{MaxCount: 200}

	commAdd := func(_ int) bool {
		a, b := gen(), gen()
		return a.Add(b).Equal(b.Add(a))
	}
	if err := quick.Check(commAdd, cfg); err != nil {
		t.Error("Add not commutative:", err)
	}
	commMul := func(_ int) bool {
		a, b := gen(), gen()
		return a.Mul(b).Equal(b.Mul(a))
	}
	if err := quick.Check(commMul, cfg); err != nil {
		t.Error("Mul not commutative:", err)
	}
	assocAdd := func(_ int) bool {
		a, b, c := gen(), gen(), gen()
		return a.Add(b).Add(c).Equal(a.Add(b.Add(c)))
	}
	if err := quick.Check(assocAdd, cfg); err != nil {
		t.Error("Add not associative:", err)
	}
	assocMul := func(_ int) bool {
		a, b, c := gen(), gen(), gen()
		return a.Mul(b).Mul(c).Equal(a.Mul(b.Mul(c)))
	}
	if err := quick.Check(assocMul, cfg); err != nil {
		t.Error("Mul not associative:", err)
	}
	distrib := func(_ int) bool {
		a, b, c := gen(), gen(), gen()
		return a.Mul(b.Add(c)).Equal(a.Mul(b).Add(a.Mul(c)))
	}
	if err := quick.Check(distrib, cfg); err != nil {
		t.Error("Mul does not distribute over Add:", err)
	}
	negInverse := func(_ int) bool {
		a := gen()
		return a.Add(a.Neg()).IsZero()
	}
	if err := quick.Check(negInverse, cfg); err != nil {
		t.Error("Neg is not an additive inverse:", err)
	}
}

func TestCmpOrdering(t *testing.T) {
	vals := []Int{FromInt64(-100), FromInt64(-1), Zero(), One(), FromInt64(100), Random(rand.New(rand.NewSource(1)), 200)}
	for i, a := range vals {
		for j, b := range vals {
			want := a.ToBig().Cmp(b.ToBig())
			if got := a.Cmp(b); got != want {
				t.Errorf("Cmp(vals[%d], vals[%d]) = %d, want %d", i, j, got, want)
			}
		}
	}
}

func TestBigRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 100; i++ {
		x := randInt(rng, 400)
		if got := FromBig(x.ToBig()); !got.Equal(x) {
			t.Fatalf("FromBig(ToBig(%v)) = %v", x, got)
		}
	}
}

func BenchmarkSchoolbookMul(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	for _, bits := range []int{1024, 4096, 16384} {
		x, y := Random(rng, bits), Random(rng, bits)
		b.Run(byteSize(bits), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = x.Mul(y)
			}
		})
	}
}

func byteSize(bits int) string {
	switch {
	case bits >= 1<<20:
		return "bits=big"
	default:
		return "bits=" + itoa(bits)
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
