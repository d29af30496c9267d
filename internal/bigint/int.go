package bigint

import (
	"fmt"
	"math/big"
	"math/rand"
	"strings"
)

// Int is an arbitrary-precision signed integer. The zero value is 0 and is
// ready to use. Int values are immutable: all operations return fresh values
// and never alias or modify their operands' limbs, so Ints may be shared
// freely across goroutines (this matters for the machine simulator, where
// messages carry Ints between processors).
type Int struct {
	neg bool // sign; never true for zero
	abs nat  // absolute value
}

// Zero returns the integer 0.
func Zero() Int { return Int{} }

// One returns the integer 1.
func One() Int { return FromInt64(1) }

// FromInt64 returns the Int representing v.
func FromInt64(v int64) Int {
	if v == 0 {
		return Int{}
	}
	neg := v < 0
	var u uint64
	if neg {
		u = uint64(-(v + 1)) + 1 // avoids overflow at MinInt64
	} else {
		u = uint64(v)
	}
	return Int{neg: neg, abs: nat{u}}
}

// FromUint64 returns the Int representing v.
func FromUint64(v uint64) Int {
	if v == 0 {
		return Int{}
	}
	return Int{abs: nat{v}}
}

// FromLimbs builds an Int directly from little-endian 64-bit limbs.
// The limbs are copied.
func FromLimbs(neg bool, limbs []uint64) Int {
	a := make(nat, len(limbs))
	copy(a, limbs)
	a = a.norm()
	if len(a) == 0 {
		return Int{}
	}
	return Int{neg: neg, abs: a}
}

// Limbs returns a copy of x's little-endian limbs (nil for zero).
func (x Int) Limbs() []uint64 {
	if len(x.abs) == 0 {
		return nil
	}
	z := make([]uint64, len(x.abs))
	copy(z, x.abs)
	return z
}

// Sign returns -1, 0, or +1 according to the sign of x.
func (x Int) Sign() int {
	if len(x.abs) == 0 {
		return 0
	}
	if x.neg {
		return -1
	}
	return 1
}

// IsZero reports whether x == 0.
func (x Int) IsZero() bool { return len(x.abs) == 0 }

// BitLen returns the length of |x| in bits (0 for 0).
func (x Int) BitLen() int { return natBitLen(x.abs) }

// Bit returns bit i of |x|.
func (x Int) Bit(i int) uint { return natBit(x.abs, i) }

// WordLen returns the number of 64-bit limbs in |x| (0 for 0). This is the
// paper's "size" measure: the base case of Toom-Cook fires when both operands
// fit within the hardware threshold, expressed here in limbs.
func (x Int) WordLen() int { return len(x.abs) }

// Neg returns -x.
func (x Int) Neg() Int {
	if len(x.abs) == 0 {
		return Int{}
	}
	return Int{neg: !x.neg, abs: x.abs}
}

// Abs returns |x|.
func (x Int) Abs() Int { return Int{abs: x.abs} }

// Cmp compares x and y: -1 if x<y, 0 if x==y, +1 if x>y.
func (x Int) Cmp(y Int) int {
	switch {
	case x.neg && !y.neg:
		return -1
	case !x.neg && y.neg:
		return 1
	}
	c := natCmp(x.abs, y.abs)
	if x.neg {
		return -c
	}
	return c
}

// Equal reports whether x == y.
func (x Int) Equal(y Int) bool { return x.Cmp(y) == 0 }

// Add returns x + y.
func (x Int) Add(y Int) Int {
	if x.neg == y.neg {
		z := natAdd(x.abs, y.abs)
		if len(z) == 0 {
			return Int{}
		}
		return Int{neg: x.neg, abs: z}
	}
	// Signs differ: subtract the smaller magnitude from the larger.
	switch natCmp(x.abs, y.abs) {
	case 0:
		return Int{}
	case 1:
		return Int{neg: x.neg, abs: natSub(x.abs, y.abs)}
	default:
		return Int{neg: y.neg, abs: natSub(y.abs, x.abs)}
	}
}

// Sub returns x - y.
func (x Int) Sub(y Int) Int { return x.Add(y.Neg()) }

// Mul returns x * y via the kernel crossover ladder (schoolbook, Karatsuba,
// or NTT depending on operand size; see ladder.go for the live thresholds).
func (x Int) Mul(y Int) Int {
	z := natMul(x.abs, y.abs)
	if len(z) == 0 {
		return Int{}
	}
	return Int{neg: x.neg != y.neg, abs: z}
}

// MulInt64 returns x * v for a small signed scalar v. This is the primitive
// used when applying integer evaluation/coding matrices to digit vectors.
func (x Int) MulInt64(v int64) Int {
	if v == 0 || len(x.abs) == 0 {
		return Int{}
	}
	neg := x.neg
	var u uint64
	if v < 0 {
		neg = !neg
		u = uint64(-(v + 1)) + 1
	} else {
		u = uint64(v)
	}
	return Int{neg: neg, abs: natMulWord(x.abs, u)}
}

// QuoRemWord returns (q, r) with x = q*w + r and 0 <= r < w, for positive x.
// For negative x it returns the quotient and remainder of |x| with q negated
// (truncated division). It panics if w == 0.
func (x Int) QuoRemWord(w uint64) (Int, uint64) {
	q, r := natDivWord(x.abs, w)
	if len(q) == 0 {
		return Int{}, r
	}
	return Int{neg: x.neg, abs: q}, r
}

// DivExactInt64 returns x / v, panicking unless the division is exact.
// Toom-Cook interpolation divides by small constants (2, 3, 6, ...) that are
// guaranteed to divide exactly; a remainder here indicates a logic error, so
// it fails loudly rather than returning a corrupted product. Dividing by ±1
// shares x's limbs (Ints are immutable) instead of running a division pass.
func (x Int) DivExactInt64(v int64) Int {
	if v == 0 {
		panic("bigint: DivExactInt64 by zero")
	}
	u := absInt64(v)
	if u == 1 {
		if v < 0 {
			return x.Neg()
		}
		return x
	}
	q, r := natDivWord(x.abs, u)
	if r != 0 {
		panic(fmt.Sprintf("bigint: DivExactInt64: %v not divisible by %d", x, v))
	}
	if len(q) == 0 {
		return Int{}
	}
	return Int{neg: x.neg != (v < 0), abs: q}
}

// Shl returns x << s.
func (x Int) Shl(s uint) Int {
	z := natShl(x.abs, s)
	if len(z) == 0 {
		return Int{}
	}
	return Int{neg: x.neg, abs: z}
}

// Shr returns |x| >> s with x's sign preserved (arithmetic shift on the
// magnitude; used only on even splits where exactness is guaranteed).
func (x Int) Shr(s uint) Int {
	z := natShr(x.abs, s)
	if len(z) == 0 {
		return Int{}
	}
	return Int{neg: x.neg, abs: z}
}

// Extract returns bits [lo, lo+width) of |x| as a non-negative Int.
func (x Int) Extract(lo, width int) Int {
	z := natExtract(x.abs, lo, width)
	if len(z) == 0 {
		return Int{}
	}
	return Int{abs: z}
}

// Int64 returns the value of x as an int64 and whether it fits.
func (x Int) Int64() (int64, bool) {
	switch len(x.abs) {
	case 0:
		return 0, true
	case 1:
		if x.neg {
			if x.abs[0] > 1<<63 {
				return 0, false
			}
			return -int64(x.abs[0]-1) - 1, true
		}
		if x.abs[0] >= 1<<63 {
			return 0, false
		}
		return int64(x.abs[0]), true
	default:
		return 0, false
	}
}

// String formats x in decimal.
func (x Int) String() string {
	if len(x.abs) == 0 {
		return "0"
	}
	// Repeatedly divide by 10^19 (largest power of ten in a uint64).
	const chunk = 10000000000000000000 // 10^19
	var groups []uint64
	n := x.abs
	for len(n) > 0 {
		var r uint64
		n, r = natDivWord(n, chunk)
		groups = append(groups, r)
	}
	var b strings.Builder
	if x.neg {
		b.WriteByte('-')
	}
	fmt.Fprintf(&b, "%d", groups[len(groups)-1])
	for i := len(groups) - 2; i >= 0; i-- {
		fmt.Fprintf(&b, "%019d", groups[i])
	}
	return b.String()
}

// ParseInt parses a decimal string (with optional leading '-') into an Int.
func ParseInt(s string) (Int, error) {
	if s == "" {
		return Int{}, fmt.Errorf("bigint: empty string")
	}
	neg := false
	if s[0] == '-' || s[0] == '+' {
		neg = s[0] == '-'
		s = s[1:]
		if s == "" {
			return Int{}, fmt.Errorf("bigint: sign without digits")
		}
	}
	var z Int
	ten19 := FromUint64(10000000000000000000)
	for len(s) > 0 {
		n := 19
		if len(s) < n {
			n = len(s)
		}
		var group uint64
		for i := 0; i < n; i++ {
			c := s[i]
			if c < '0' || c > '9' {
				return Int{}, fmt.Errorf("bigint: invalid digit %q", c)
			}
			group = group*10 + uint64(c-'0')
		}
		if n == 19 {
			z = z.Mul(ten19).Add(FromUint64(group))
		} else {
			pow := uint64(1)
			for i := 0; i < n; i++ {
				pow *= 10
			}
			z = z.Mul(FromUint64(pow)).Add(FromUint64(group))
		}
		s = s[n:]
	}
	if neg {
		z = z.Neg()
	}
	return z, nil
}

// ToBig converts x to a *math/big.Int (test oracle and public-API bridge).
func (x Int) ToBig() *big.Int {
	z := new(big.Int)
	if len(x.abs) == 0 {
		return z
	}
	words := make([]big.Word, len(x.abs))
	for i, l := range x.abs {
		words[i] = big.Word(l)
	}
	z.SetBits(words)
	if x.neg {
		z.Neg(z)
	}
	return z
}

// FromBig converts a *math/big.Int to an Int.
func FromBig(v *big.Int) Int {
	bitsv := v.Bits()
	limbs := make(nat, len(bitsv))
	for i, w := range bitsv {
		limbs[i] = uint64(w)
	}
	limbs = limbs.norm()
	if len(limbs) == 0 {
		return Int{}
	}
	return Int{neg: v.Sign() < 0, abs: limbs}
}

// Random returns a uniformly random non-negative Int with exactly the given
// number of bits (the top bit is set), using the provided source. bits must
// be positive.
func Random(rng *rand.Rand, bits int) Int {
	if bits <= 0 {
		panic("bigint: Random needs bits > 0")
	}
	limbs := (bits + 63) / 64
	z := make(nat, limbs)
	for i := range z {
		z[i] = rng.Uint64()
	}
	top := bits % 64
	if top == 0 {
		top = 64
	}
	z[limbs-1] &= (1 << uint(top)) - 1
	z[limbs-1] |= 1 << uint(top-1) // force exact bit length
	return Int{abs: z.norm()}
}

// Sum returns the sum of all xs (0 for an empty list).
func Sum(xs ...Int) Int {
	var z Int
	for _, x := range xs {
		z = z.Add(x)
	}
	return z
}
