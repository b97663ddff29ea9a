// Package rational implements exact rational arithmetic on int64
// numerators and denominators with explicit overflow detection.
//
// The discrete-event simulator (internal/sim) uses Rat for event
// timestamps so that job releases, preemptions and deadline checks over a
// full hyperperiod are exact: no float drift, no epsilon comparisons.
// Machine speeds are rationals, worst-case execution times and periods are
// integers, so every event time is representable as a ratio of bounded
// integers.
//
// All values are kept in canonical form: the denominator is strictly
// positive and gcd(|num|, den) == 1. The zero value of Rat is NOT valid
// (its denominator is zero); construct values with New, FromInt or
// FromFloat.
package rational

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// ErrOverflow is returned when the exact result of an operation cannot be
// represented with int64 numerator and denominator even after reduction.
var ErrOverflow = errors.New("rational: int64 overflow")

// ErrDivByZero is returned on division by an exactly zero rational.
var ErrDivByZero = errors.New("rational: division by zero")

// Rat is an exact rational number num/den in canonical form.
type Rat struct {
	num int64
	den int64 // > 0 for valid values
}

// Zero is the rational 0/1.
func Zero() Rat { return Rat{0, 1} }

// One is the rational 1/1.
func One() Rat { return Rat{1, 1} }

// New returns the canonical rational num/den.
// It returns ErrDivByZero when den == 0 and ErrOverflow when the canonical
// form does not fit (only possible for num or den equal to math.MinInt64).
func New(num, den int64) (Rat, error) {
	if den == 0 {
		return Rat{}, ErrDivByZero
	}
	if num == 0 {
		return Rat{0, 1}, nil
	}
	if num == math.MinInt64 || den == math.MinInt64 {
		// |MinInt64| is not representable; reduce first via uint64 gcd.
		g := gcd64(absU(num), absU(den))
		un, ud := absU(num)/g, absU(den)/g
		neg := (num < 0) != (den < 0)
		if un > math.MaxInt64 || ud > math.MaxInt64 {
			if neg && un == math.MaxInt64+1 && ud <= math.MaxInt64 {
				return Rat{math.MinInt64, int64(ud)}, nil
			}
			return Rat{}, ErrOverflow
		}
		n, d := int64(un), int64(ud)
		if neg {
			n = -n
		}
		return Rat{n, d}, nil
	}
	if den < 0 {
		num, den = -num, -den
	}
	g := int64(gcd64(absU(num), uint64(den)))
	return Rat{num / g, den / g}, nil
}

// MustNew is New, panicking on error. Intended for constants in tests and
// literals known to be valid.
func MustNew(num, den int64) Rat {
	r, err := New(num, den)
	if err != nil {
		panic(fmt.Sprintf("rational.MustNew(%d, %d): %v", num, den, err))
	}
	return r
}

// FromInt returns the rational n/1.
func FromInt(n int64) Rat { return Rat{n, 1} }

// Num returns the canonical numerator.
func (r Rat) Num() int64 { return r.num }

// Den returns the canonical (positive) denominator.
func (r Rat) Den() int64 { return r.den }

// Valid reports whether r is in canonical form with a positive denominator.
func (r Rat) Valid() bool {
	if r.den <= 0 {
		return false
	}
	if r.num == 0 {
		return r.den == 1
	}
	return gcd64(absU(r.num), uint64(r.den)) == 1
}

// IsZero reports whether r == 0.
func (r Rat) IsZero() bool { return r.num == 0 }

// Sign returns -1, 0 or +1 according to the sign of r.
func (r Rat) Sign() int {
	switch {
	case r.num > 0:
		return 1
	case r.num < 0:
		return -1
	default:
		return 0
	}
}

// Neg returns -r. Negation never overflows for canonical values except the
// unreachable |num| == MinInt64 case, which New rejects.
func (r Rat) Neg() Rat { return Rat{-r.num, r.den} }

// Float64 returns the nearest float64 to r.
func (r Rat) Float64() float64 { return float64(r.num) / float64(r.den) }

// String renders r as "num/den", or "num" when den == 1.
func (r Rat) String() string {
	if r.den == 1 {
		return fmt.Sprintf("%d", r.num)
	}
	return fmt.Sprintf("%d/%d", r.num, r.den)
}

// Cmp compares r and s exactly, returning -1, 0 or +1.
func (r Rat) Cmp(s Rat) int {
	// Fast path: equal denominators (covering the dominant case of two
	// integers, den == 1) compare by numerator alone. Event timestamps in
	// the simulator are integers whenever speeds are, so this skips the
	// 128-bit cross-multiplication on the hot comparison path.
	if r.den == s.den {
		switch {
		case r.num < s.num:
			return -1
		case r.num > s.num:
			return 1
		default:
			return 0
		}
	}
	return CmpFrac(r.num, r.den, s.num, s.den)
}

// CmpFrac compares a/b with c/d exactly for positive denominators b and
// d, returning -1, 0 or +1. It cross-multiplies in 128 bits (a·d against
// c·b), so the fractions need no reduction: no gcd, and no overflow for
// any int64 operands.
func CmpFrac(a, b, c, d int64) int {
	lhHi, lhLo := mul64(a, d)
	rhHi, rhLo := mul64(c, b)
	return cmp128(lhHi, lhLo, rhHi, rhLo)
}

// Less reports r < s.
func (r Rat) Less(s Rat) bool { return r.Cmp(s) < 0 }

// LessEq reports r <= s.
func (r Rat) LessEq(s Rat) bool { return r.Cmp(s) <= 0 }

// Equal reports r == s (exact).
func (r Rat) Equal(s Rat) bool { return r.num == s.num && r.den == s.den }

// Add returns r + s exactly.
//
// Two fast paths cover the simulator's dominant operand shapes without
// changing overflow behavior — any intermediate that does not fit int64
// falls through to the general 128-bit path, which reduces before
// deciding overflow exactly as before:
//
//   - equal denominators (including integer + integer): one checked add
//     and one 64-bit gcd, no 128-bit arithmetic;
//   - one integer operand: the result (r.num*s.den + s.num)/s.den is
//     already canonical because gcd(s.num, s.den) == 1, so no gcd at all.
func (r Rat) Add(s Rat) (Rat, error) {
	if r.den == s.den {
		if sum, ok := add64(r.num, s.num); ok {
			if r.den == 1 {
				return Rat{sum, 1}, nil
			}
			g := int64(gcd64(absU(sum), uint64(r.den)))
			return Rat{sum / g, r.den / g}, nil
		}
	} else if r.den == 1 {
		if p, ok := mul64Fits(r.num, s.den); ok {
			if sum, ok := add64(p, s.num); ok {
				return Rat{sum, s.den}, nil
			}
		}
	} else if s.den == 1 {
		if p, ok := mul64Fits(s.num, r.den); ok {
			if sum, ok := add64(p, r.num); ok {
				return Rat{sum, r.den}, nil
			}
		}
	}
	// r.num/r.den + s.num/s.den = (r.num*(L/r.den) + s.num*(L/s.den)) / L
	// with L = lcm(r.den, s.den).
	g := int64(gcd64(uint64(r.den), uint64(s.den)))
	db := s.den / g
	lnHi, lnLo := mul64(r.num, db)
	rnHi, rnLo := mul64(s.num, r.den/g)
	sumHi, sumLo, carry := add128(lnHi, lnLo, rnHi, rnLo)
	if carry {
		return Rat{}, ErrOverflow
	}
	ldHi, ldLo := mul64(r.den, db)
	return canon128(sumHi, sumLo, ldHi, ldLo)
}

// Sub returns r - s exactly.
func (r Rat) Sub(s Rat) (Rat, error) { return r.Add(s.Neg()) }

// Mul returns r * s exactly.
func (r Rat) Mul(s Rat) (Rat, error) {
	// Cross-reduce first to keep intermediates small.
	g1 := int64(gcd64(absU(r.num), uint64(s.den)))
	g2 := int64(gcd64(absU(s.num), uint64(r.den)))
	nHi, nLo := mul64(r.num/g1, s.num/g2)
	dHi, dLo := mul64(r.den/g2, s.den/g1)
	return canon128(nHi, nLo, dHi, dLo)
}

// Div returns r / s exactly. It returns ErrDivByZero when s is zero.
func (r Rat) Div(s Rat) (Rat, error) {
	if s.num == 0 {
		return Rat{}, ErrDivByZero
	}
	inv := Rat{s.den, s.num}
	if inv.den < 0 {
		inv.num, inv.den = -inv.num, -inv.den
	}
	return r.Mul(inv)
}

// MulInt returns r * n exactly.
func (r Rat) MulInt(n int64) (Rat, error) { return r.Mul(FromInt(n)) }

// DivInt returns r / n exactly.
func (r Rat) DivInt(n int64) (Rat, error) { return r.Div(FromInt(n)) }

// Min returns the smaller of r and s.
func Min(r, s Rat) Rat {
	if r.Cmp(s) <= 0 {
		return r
	}
	return s
}

// Max returns the larger of r and s.
func Max(r, s Rat) Rat {
	if r.Cmp(s) >= 0 {
		return r
	}
	return s
}

// Sum adds all values, returning the exact total.
func Sum(vs ...Rat) (Rat, error) {
	total := Zero()
	var err error
	for _, v := range vs {
		total, err = total.Add(v)
		if err != nil {
			return Rat{}, err
		}
	}
	return total, nil
}

// CeilDiv returns ceil(r / s) as an int64, for positive s.
// It is the number of whole periods of length s needed to cover r,
// used by response-time analysis and job counting.
func CeilDiv(r, s Rat) (int64, error) {
	if s.Sign() <= 0 {
		return 0, fmt.Errorf("rational: CeilDiv by non-positive %v", s)
	}
	q, err := r.Div(s)
	if err != nil {
		return 0, err
	}
	return q.Ceil(), nil
}

// Floor returns the greatest integer <= r.
func (r Rat) Floor() int64 {
	q := r.num / r.den
	if r.num%r.den != 0 && r.num < 0 {
		q--
	}
	return q
}

// Ceil returns the least integer >= r.
func (r Rat) Ceil() int64 {
	q := r.num / r.den
	if r.num%r.den != 0 && r.num > 0 {
		q++
	}
	return q
}

// --- 128-bit helpers -------------------------------------------------------

// mul64 returns the signed 128-bit product of a and b as (hi, lo), where the
// value is hi*2^64 + lo interpreted in two's complement.
func mul64(a, b int64) (hi int64, lo uint64) {
	uhi, ulo := bits.Mul64(uint64(a), uint64(b))
	// Convert unsigned 128-bit product of two's-complement inputs to signed:
	// subtract b<<64 when a < 0, subtract a<<64 when b < 0.
	shi := int64(uhi)
	if a < 0 {
		shi -= b
	}
	if b < 0 {
		shi -= a
	}
	return shi, ulo
}

// add64 returns a + b and whether the sum is usable as a canonical
// numerator. A sum of exactly MinInt64 is reported as not fitting even
// though int64 holds it: the general path's canon128 rejects |num| = 2^63
// (it cannot be negated), so fast paths must defer those sums to it to
// keep overflow behavior identical.
func add64(a, b int64) (int64, bool) {
	s := a + b
	if (a >= 0) == (b >= 0) && (s >= 0) != (a >= 0) {
		return 0, false
	}
	if s == math.MinInt64 {
		return 0, false
	}
	return s, true
}

// mul64Fits returns a * b and whether the product fits in int64.
func mul64Fits(a, b int64) (int64, bool) {
	hi, lo := mul64(a, b)
	// The 128-bit product fits iff the high word is the sign extension of
	// the low word.
	if hi != int64(lo)>>63 {
		return 0, false
	}
	return int64(lo), true
}

// add128 adds two signed 128-bit values, reporting signed overflow.
func add128(aHi int64, aLo uint64, bHi int64, bLo uint64) (hi int64, lo uint64, overflow bool) {
	lo, c := bits.Add64(aLo, bLo, 0)
	hi = aHi + bHi + int64(c)
	// Signed overflow: operands same sign, result different sign.
	if (aHi < 0) == (bHi < 0) && (hi < 0) != (aHi < 0) {
		// Adding the carry cannot flip an otherwise-safe sign because the
		// low word absorbs it; any flip here is a real overflow.
		return hi, lo, true
	}
	return hi, lo, false
}

// cmp128 compares signed 128-bit values.
func cmp128(aHi int64, aLo uint64, bHi int64, bLo uint64) int {
	if aHi != bHi {
		if aHi < bHi {
			return -1
		}
		return 1
	}
	if aLo != bLo {
		if aLo < bLo {
			return -1
		}
		return 1
	}
	return 0
}

// neg128 negates a signed 128-bit value.
func neg128(hi int64, lo uint64) (int64, uint64) {
	nlo := ^lo + 1
	nhi := ^hi
	if nlo == 0 {
		nhi++
	}
	return nhi, nlo
}

// abs128 returns |v| as unsigned 128 bits plus the original sign.
func abs128(hi int64, lo uint64) (uhi, ulo uint64, neg bool) {
	if hi < 0 || (hi == 0 && false) {
		h, l := neg128(hi, lo)
		return uint64(h), l, true
	}
	return uint64(hi), lo, false
}

// canon128 reduces the signed 128-bit fraction num/den to a canonical Rat,
// or reports overflow when the reduced value does not fit int64/int64.
func canon128(nHi int64, nLo uint64, dHi int64, dLo uint64) (Rat, error) {
	if dHi == 0 && dLo == 0 {
		return Rat{}, ErrDivByZero
	}
	unHi, unLo, nNeg := abs128(nHi, nLo)
	udHi, udLo, dNeg := abs128(dHi, dLo)
	if unHi == 0 && unLo == 0 {
		return Rat{0, 1}, nil
	}
	g1, g0 := gcd128(unHi, unLo, udHi, udLo)
	unHi, unLo = divmod128by128(unHi, unLo, g1, g0)
	udHi, udLo = divmod128by128(udHi, udLo, g1, g0)
	if unHi != 0 || udHi != 0 || unLo > math.MaxInt64 || udLo > math.MaxInt64 {
		return Rat{}, ErrOverflow
	}
	n, d := int64(unLo), int64(udLo)
	if nNeg != dNeg {
		n = -n
	}
	return Rat{n, d}, nil
}

// gcd64 computes gcd of two uint64 values (binary not needed; Euclid is fine).
func gcd64(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	if a == 0 {
		return 1
	}
	return a
}

func absU(v int64) uint64 {
	if v < 0 {
		return uint64(-(v + 1)) + 1 // handles MinInt64
	}
	return uint64(v)
}

// --- unsigned 128-bit gcd & division ----------------------------------------

// gcd128 computes gcd of two unsigned 128-bit values via Euclid using
// 128-by-128 remainder.
func gcd128(aHi, aLo, bHi, bLo uint64) (uint64, uint64) {
	for bHi != 0 || bLo != 0 {
		rHi, rLo := mod128(aHi, aLo, bHi, bLo)
		aHi, aLo, bHi, bLo = bHi, bLo, rHi, rLo
	}
	if aHi == 0 && aLo == 0 {
		return 0, 1
	}
	return aHi, aLo
}

// mod128 computes a mod b for unsigned 128-bit a, b (b != 0) via binary long
// division.
func mod128(aHi, aLo, bHi, bLo uint64) (uint64, uint64) {
	if bHi == 0 {
		// Divide 128 by 64 using bits.Div64 in two steps.
		if bLo == 0 {
			panic("rational: mod128 by zero")
		}
		r := aHi % bLo
		_, rem := bits.Div64(r, aLo, bLo)
		return 0, rem
	}
	// b has a high word: at most one subtraction loop step count bounded by 64.
	// Use shift-subtract long division.
	rHi, rLo := aHi, aLo
	shift := leading128(bHi, bLo) - leading128(rHi, rLo)
	if shift < 0 {
		return rHi, rLo
	}
	sbHi, sbLo := shl128(bHi, bLo, uint(shift))
	for i := shift; i >= 0; i-- {
		if cmpU128(rHi, rLo, sbHi, sbLo) >= 0 {
			rHi, rLo = subU128(rHi, rLo, sbHi, sbLo)
		}
		sbHi, sbLo = shr128(sbHi, sbLo, 1)
	}
	return rHi, rLo
}

// divmod128by128 returns a / b (quotient only) for unsigned 128-bit values,
// assuming the division is exact or truncating.
func divmod128by128(aHi, aLo, bHi, bLo uint64) (uint64, uint64) {
	if bHi == 0 && bLo == 1 {
		return aHi, aLo
	}
	qHi, qLo := uint64(0), uint64(0)
	rHi, rLo := aHi, aLo
	shift := leading128(bHi, bLo) - leading128(rHi, rLo)
	if shift < 0 {
		return 0, 0
	}
	sbHi, sbLo := shl128(bHi, bLo, uint(shift))
	for i := shift; i >= 0; i-- {
		qHi, qLo = shl128(qHi, qLo, 1)
		if cmpU128(rHi, rLo, sbHi, sbLo) >= 0 {
			rHi, rLo = subU128(rHi, rLo, sbHi, sbLo)
			qLo |= 1
		}
		sbHi, sbLo = shr128(sbHi, sbLo, 1)
	}
	return qHi, qLo
}

func leading128(hi, lo uint64) int {
	if hi != 0 {
		return bits.LeadingZeros64(hi)
	}
	return 64 + bits.LeadingZeros64(lo)
}

func shl128(hi, lo uint64, n uint) (uint64, uint64) {
	if n == 0 {
		return hi, lo
	}
	if n >= 128 {
		return 0, 0
	}
	if n >= 64 {
		return lo << (n - 64), 0
	}
	return hi<<n | lo>>(64-n), lo << n
}

func shr128(hi, lo uint64, n uint) (uint64, uint64) {
	if n == 0 {
		return hi, lo
	}
	if n >= 128 {
		return 0, 0
	}
	if n >= 64 {
		return 0, hi >> (n - 64)
	}
	return hi >> n, lo>>n | hi<<(64-n)
}

func cmpU128(aHi, aLo, bHi, bLo uint64) int {
	if aHi != bHi {
		if aHi < bHi {
			return -1
		}
		return 1
	}
	if aLo != bLo {
		if aLo < bLo {
			return -1
		}
		return 1
	}
	return 0
}

func subU128(aHi, aLo, bHi, bLo uint64) (uint64, uint64) {
	lo, borrow := bits.Sub64(aLo, bLo, 0)
	hi, _ := bits.Sub64(aHi, bHi, borrow)
	return hi, lo
}
