package rational

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustBig(r Rat) *big.Rat { return big.NewRat(r.Num(), r.Den()) }

func TestNewCanonical(t *testing.T) {
	tests := []struct {
		num, den int64
		wantN    int64
		wantD    int64
	}{
		{1, 2, 1, 2},
		{2, 4, 1, 2},
		{-2, 4, -1, 2},
		{2, -4, -1, 2},
		{-2, -4, 1, 2},
		{0, 5, 0, 1},
		{0, -5, 0, 1},
		{7, 7, 1, 1},
		{-9, 3, -3, 1},
		{math.MaxInt64, math.MaxInt64, 1, 1},
		{math.MinInt64, 2, math.MinInt64 / 2, 1},
		{math.MinInt64, math.MinInt64, 1, 1},
	}
	for _, tc := range tests {
		r, err := New(tc.num, tc.den)
		if err != nil {
			t.Fatalf("New(%d, %d): %v", tc.num, tc.den, err)
		}
		if r.Num() != tc.wantN || r.Den() != tc.wantD {
			t.Errorf("New(%d, %d) = %v, want %d/%d", tc.num, tc.den, r, tc.wantN, tc.wantD)
		}
		if !r.Valid() {
			t.Errorf("New(%d, %d) = %v not canonical", tc.num, tc.den, r)
		}
	}
}

func TestNewErrors(t *testing.T) {
	if _, err := New(1, 0); err != ErrDivByZero {
		t.Errorf("New(1, 0) err = %v, want ErrDivByZero", err)
	}
	if _, err := New(math.MinInt64, 1); err != nil {
		t.Errorf("New(MinInt64, 1) unexpected err %v", err)
	}
	if _, err := New(math.MinInt64, 3); err != nil {
		// -2^63/3 is canonical already and representable.
		t.Errorf("New(MinInt64, 3) err = %v", err)
	}
	// 1/MinInt64 canonicalizes to -1/2^63, whose denominator exceeds
	// MaxInt64: must be reported as overflow, never silently wrong.
	if _, err := New(1, math.MinInt64); err != ErrOverflow {
		t.Errorf("New(1, MinInt64) err = %v, want ErrOverflow", err)
	}
}

func TestZeroOneHelpers(t *testing.T) {
	if !Zero().IsZero() || Zero().Sign() != 0 {
		t.Error("Zero() broken")
	}
	if One().Num() != 1 || One().Den() != 1 || One().Sign() != 1 {
		t.Error("One() broken")
	}
	if FromInt(-3).Sign() != -1 {
		t.Error("FromInt sign broken")
	}
	var zero Rat
	if zero.Valid() {
		t.Error("zero value Rat must be invalid")
	}
}

func TestStringAndFloat(t *testing.T) {
	if got := MustNew(3, 4).String(); got != "3/4" {
		t.Errorf("String = %q", got)
	}
	if got := FromInt(-7).String(); got != "-7" {
		t.Errorf("String = %q", got)
	}
	if got := MustNew(1, 2).Float64(); got != 0.5 {
		t.Errorf("Float64 = %v", got)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew(1, 0) did not panic")
		}
	}()
	MustNew(1, 0)
}

func TestArithmeticBasics(t *testing.T) {
	half := MustNew(1, 2)
	third := MustNew(1, 3)

	sum, err := half.Add(third)
	if err != nil || !sum.Equal(MustNew(5, 6)) {
		t.Errorf("1/2 + 1/3 = %v (%v), want 5/6", sum, err)
	}
	diff, err := half.Sub(third)
	if err != nil || !diff.Equal(MustNew(1, 6)) {
		t.Errorf("1/2 - 1/3 = %v (%v), want 1/6", diff, err)
	}
	prod, err := half.Mul(third)
	if err != nil || !prod.Equal(MustNew(1, 6)) {
		t.Errorf("1/2 * 1/3 = %v (%v), want 1/6", prod, err)
	}
	quot, err := half.Div(third)
	if err != nil || !quot.Equal(MustNew(3, 2)) {
		t.Errorf("1/2 / 1/3 = %v (%v), want 3/2", quot, err)
	}
	if _, err := half.Div(Zero()); err != ErrDivByZero {
		t.Errorf("div by zero err = %v", err)
	}
}

func TestNegOfNegativeDen(t *testing.T) {
	r := MustNew(3, -4)
	if !r.Equal(MustNew(-3, 4)) {
		t.Fatalf("canonicalization failed: %v", r)
	}
	if !r.Neg().Equal(MustNew(3, 4)) {
		t.Errorf("Neg = %v", r.Neg())
	}
}

func TestDivNegativeDivisorCanonical(t *testing.T) {
	q, err := MustNew(1, 2).Div(MustNew(-1, 3))
	if err != nil || !q.Equal(MustNew(-3, 2)) {
		t.Errorf("1/2 / -1/3 = %v (%v), want -3/2", q, err)
	}
	if !q.Valid() {
		t.Errorf("result not canonical: %v", q)
	}
}

func TestFloorCeil(t *testing.T) {
	tests := []struct {
		r     Rat
		floor int64
		ceil  int64
	}{
		{MustNew(7, 2), 3, 4},
		{MustNew(-7, 2), -4, -3},
		{FromInt(5), 5, 5},
		{FromInt(-5), -5, -5},
		{Zero(), 0, 0},
		{MustNew(1, 3), 0, 1},
		{MustNew(-1, 3), -1, 0},
	}
	for _, tc := range tests {
		if got := tc.r.Floor(); got != tc.floor {
			t.Errorf("Floor(%v) = %d, want %d", tc.r, got, tc.floor)
		}
		if got := tc.r.Ceil(); got != tc.ceil {
			t.Errorf("Ceil(%v) = %d, want %d", tc.r, got, tc.ceil)
		}
	}
}

func TestCeilDiv(t *testing.T) {
	got, err := CeilDiv(MustNew(7, 1), MustNew(2, 1))
	if err != nil || got != 4 {
		t.Errorf("CeilDiv(7, 2) = %d (%v), want 4", got, err)
	}
	got, err = CeilDiv(MustNew(6, 1), MustNew(2, 1))
	if err != nil || got != 3 {
		t.Errorf("CeilDiv(6, 2) = %d (%v), want 3", got, err)
	}
	if _, err := CeilDiv(One(), Zero()); err == nil {
		t.Error("CeilDiv by zero should fail")
	}
	if _, err := CeilDiv(One(), FromInt(-2)); err == nil {
		t.Error("CeilDiv by negative should fail")
	}
}

func TestMinMaxSum(t *testing.T) {
	a, b := MustNew(1, 3), MustNew(1, 2)
	if !Min(a, b).Equal(a) || !Max(a, b).Equal(b) {
		t.Error("Min/Max broken")
	}
	s, err := Sum(a, b, FromInt(1))
	if err != nil || !s.Equal(MustNew(11, 6)) {
		t.Errorf("Sum = %v (%v), want 11/6", s, err)
	}
}

func TestCmpExactAgainstBig(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 5000; i++ {
		a := MustNew(rng.Int63n(2_000_001)-1_000_000, rng.Int63n(1_000_000)+1)
		b := MustNew(rng.Int63n(2_000_001)-1_000_000, rng.Int63n(1_000_000)+1)
		if got, want := a.Cmp(b), mustBig(a).Cmp(mustBig(b)); got != want {
			t.Fatalf("Cmp(%v, %v) = %d, want %d", a, b, got, want)
		}
	}
}

// TestCmpLargeOperands exercises the 128-bit comparison path where the naive
// cross-multiplication overflows int64.
func TestCmpLargeOperands(t *testing.T) {
	a := MustNew(math.MaxInt64, math.MaxInt64-1)
	b := MustNew(math.MaxInt64-1, math.MaxInt64-2)
	if got, want := a.Cmp(b), mustBig(a).Cmp(mustBig(b)); got != want {
		t.Fatalf("Cmp = %d, want %d", got, want)
	}
	if a.Cmp(a) != 0 {
		t.Error("self compare != 0")
	}
}

func randRat(rng *rand.Rand, bound int64) Rat {
	return MustNew(rng.Int63n(2*bound+1)-bound, rng.Int63n(bound)+1)
}

func TestArithmeticAgainstBigRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		a := randRat(rng, 1_000_000)
		b := randRat(rng, 1_000_000)

		if s, err := a.Add(b); err == nil {
			want := new(big.Rat).Add(mustBig(a), mustBig(b))
			if mustBig(s).Cmp(want) != 0 {
				t.Fatalf("%v + %v = %v, want %v", a, b, s, want)
			}
			if !s.Valid() {
				t.Fatalf("Add result not canonical: %v", s)
			}
		}
		if p, err := a.Mul(b); err == nil {
			want := new(big.Rat).Mul(mustBig(a), mustBig(b))
			if mustBig(p).Cmp(want) != 0 {
				t.Fatalf("%v * %v = %v, want %v", a, b, p, want)
			}
		}
		if !b.IsZero() {
			if q, err := a.Div(b); err == nil {
				want := new(big.Rat).Quo(mustBig(a), mustBig(b))
				if mustBig(q).Cmp(want) != 0 {
					t.Fatalf("%v / %v = %v, want %v", a, b, q, want)
				}
			}
		}
	}
}

// TestArithmeticAgainstBigHuge stresses near-overflow operands: results are
// either exact (matching big.Rat) or reported as ErrOverflow — never silently
// wrong.
func TestArithmeticAgainstBigHuge(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	huge := int64(math.MaxInt64 / 2)
	for i := 0; i < 5000; i++ {
		a := randRat(rng, huge)
		b := randRat(rng, huge)
		if s, err := a.Add(b); err == nil {
			want := new(big.Rat).Add(mustBig(a), mustBig(b))
			if mustBig(s).Cmp(want) != 0 {
				t.Fatalf("%v + %v = %v, want %v", a, b, s, want)
			}
		}
		if p, err := a.Mul(b); err == nil {
			want := new(big.Rat).Mul(mustBig(a), mustBig(b))
			if mustBig(p).Cmp(want) != 0 {
				t.Fatalf("%v * %v = %v, want %v", a, b, p, want)
			}
		}
	}
}

func TestOverflowDetected(t *testing.T) {
	big1 := MustNew(math.MaxInt64, 1)
	if _, err := big1.Add(big1); err != ErrOverflow {
		t.Errorf("MaxInt64 + MaxInt64 err = %v, want ErrOverflow", err)
	}
	if _, err := big1.Mul(big1); err != ErrOverflow {
		t.Errorf("MaxInt64 * MaxInt64 err = %v, want ErrOverflow", err)
	}
	// Denominator blowup: 1/p * 1/q with coprime huge p, q.
	p := MustNew(1, math.MaxInt64)
	q := MustNew(1, math.MaxInt64-2) // MaxInt64 and MaxInt64-2 share no factor 2; likely coprime
	if _, err := p.Mul(q); err != ErrOverflow {
		t.Errorf("tiny*tiny denominator overflow err = %v, want ErrOverflow", err)
	}
}

// Property: Add is commutative and associative where defined.
func TestQuickAddLaws(t *testing.T) {
	f := func(an, bn, cn int32, adRaw, bdRaw, cdRaw uint16) bool {
		ad, bd, cd := int64(adRaw)+1, int64(bdRaw)+1, int64(cdRaw)+1
		a, b, c := MustNew(int64(an), ad), MustNew(int64(bn), bd), MustNew(int64(cn), cd)
		ab, err1 := a.Add(b)
		ba, err2 := b.Add(a)
		if err1 != nil || err2 != nil {
			return err1 == err2
		}
		if !ab.Equal(ba) {
			return false
		}
		abc1, err1 := ab.Add(c)
		bc, err2 := b.Add(c)
		if err2 != nil {
			return true
		}
		abc2, err3 := a.Add(bc)
		if err1 != nil || err3 != nil {
			return true
		}
		return abc1.Equal(abc2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: a - a == 0 and a + (-a) == 0.
func TestQuickAdditiveInverse(t *testing.T) {
	f := func(an int64, adRaw uint32) bool {
		ad := int64(adRaw) + 1
		a, err := New(an, ad)
		if err != nil {
			return true
		}
		d, err := a.Sub(a)
		if err != nil || !d.IsZero() {
			return false
		}
		z, err := a.Add(a.Neg())
		return err == nil && z.IsZero()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: (a*b)/b == a for b != 0.
func TestQuickMulDivRoundTrip(t *testing.T) {
	f := func(an, bn int32, adRaw, bdRaw uint16) bool {
		ad, bd := int64(adRaw)+1, int64(bdRaw)+1
		a, b := MustNew(int64(an), ad), MustNew(int64(bn), bd)
		if b.IsZero() {
			return true
		}
		p, err := a.Mul(b)
		if err != nil {
			return true
		}
		q, err := p.Div(b)
		return err == nil && q.Equal(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: results are always canonical.
func TestQuickCanonical(t *testing.T) {
	f := func(an, bn int64, adRaw, bdRaw uint32) bool {
		a, err := New(an, int64(adRaw)+1)
		if err != nil {
			return true
		}
		b, err := New(bn, int64(bdRaw)+1)
		if err != nil {
			return true
		}
		for _, op := range []func(Rat) (Rat, error){a.Add, a.Sub, a.Mul, a.Div} {
			r, err := op(b)
			if err == nil && !r.Valid() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: Floor(r) <= r < Floor(r)+1 and Ceil(r)-1 < r <= Ceil(r).
func TestQuickFloorCeilBracket(t *testing.T) {
	f := func(n int32, dRaw uint16) bool {
		d := int64(dRaw) + 1
		r := MustNew(int64(n), d)
		fl, ce := FromInt(r.Floor()), FromInt(r.Ceil())
		if r.Cmp(fl) < 0 || r.Cmp(ce) > 0 {
			return false
		}
		flPlus1, _ := fl.Add(One())
		cemin1, _ := ce.Sub(One())
		return r.Less(flPlus1) && cemin1.Less(r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAdd(b *testing.B) {
	x := MustNew(355, 113)
	y := MustNew(22, 7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := x.Add(y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMul(b *testing.B) {
	x := MustNew(355, 113)
	y := MustNew(22, 7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := x.Mul(y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCmp(b *testing.B) {
	x := MustNew(math.MaxInt64, math.MaxInt64-1)
	y := MustNew(math.MaxInt64-1, math.MaxInt64-2)
	for i := 0; i < b.N; i++ {
		x.Cmp(y)
	}
}

// TestAddFastPaths pins the equal-denominator and integer-operand fast
// paths, including the overflow boundaries where they must fall through
// to the general 128-bit path with unchanged behavior.
func TestAddFastPaths(t *testing.T) {
	cases := []struct {
		a, b    Rat
		want    Rat
		wantErr bool
	}{
		// Integer + integer.
		{FromInt(3), FromInt(4), FromInt(7), false},
		{FromInt(math.MaxInt64), FromInt(-1), FromInt(math.MaxInt64 - 1), false},
		// Integer + integer overflowing int64: still ErrOverflow.
		{FromInt(math.MaxInt64), FromInt(1), Rat{}, true},
		// Sum of exactly MinInt64: canon128 has always rejected
		// |num| = 2^63, and the fast path must preserve that.
		{FromInt(math.MinInt64 + 1), FromInt(-1), Rat{}, true},
		// Equal denominators, reducing and non-reducing.
		{MustNew(1, 4), MustNew(1, 4), MustNew(1, 2), false},
		{MustNew(1, 4), MustNew(2, 4), MustNew(3, 4), false},
		{MustNew(3, 7), MustNew(-3, 7), Zero(), false},
		// Equal denominators whose numerator sum overflows int64 but
		// reduces back into range: general path must still succeed.
		{MustNew(math.MaxInt64, 2), MustNew(math.MaxInt64, 2), FromInt(math.MaxInt64), false},
		// Integer + fraction: canonical without reduction.
		{FromInt(2), MustNew(1, 3), MustNew(7, 3), false},
		{MustNew(1, 3), FromInt(-2), MustNew(-5, 3), false},
		// Integer + fraction overflowing: ErrOverflow preserved.
		{FromInt(math.MaxInt64), MustNew(1, 2), Rat{}, true},
	}
	for _, c := range cases {
		got, err := c.a.Add(c.b)
		if c.wantErr {
			if err == nil {
				t.Errorf("%v + %v = %v, want overflow", c.a, c.b, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("%v + %v: %v", c.a, c.b, err)
			continue
		}
		if !got.Equal(c.want) || !got.Valid() {
			t.Errorf("%v + %v = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// TestCmpFastPath pins the equal-denominator comparison shortcut.
func TestCmpFastPath(t *testing.T) {
	cases := []struct {
		a, b Rat
		want int
	}{
		{FromInt(2), FromInt(3), -1},
		{FromInt(3), FromInt(3), 0},
		{FromInt(-3), FromInt(-4), 1},
		{MustNew(1, 5), MustNew(3, 5), -1},
		{MustNew(math.MaxInt64, 7), MustNew(math.MaxInt64-7, 7), 1},
		{MustNew(1, 2), MustNew(1, 3), 1}, // different dens: general path
	}
	for _, c := range cases {
		if got := c.a.Cmp(c.b); got != c.want {
			t.Errorf("Cmp(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := c.b.Cmp(c.a); got != -c.want {
			t.Errorf("Cmp(%v, %v) = %d, want %d", c.b, c.a, got, -c.want)
		}
	}
}

// BenchmarkAddInt measures the integer fast path the simulator's event
// arithmetic rides on.
func BenchmarkAddInt(b *testing.B) {
	x := FromInt(123456)
	y := FromInt(789)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := x.Add(y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCmpInt measures the equal-denominator comparison fast path.
func BenchmarkCmpInt(b *testing.B) {
	x := FromInt(123456)
	y := FromInt(123457)
	for i := 0; i < b.N; i++ {
		x.Cmp(y)
	}
}

// TestCmpFracAgreesWithCmp is the property the gcd-free task order rests
// on: cross-multiplying the unreduced fractions in 128 bits gives
// exactly Rat.Cmp of the reduced ones, for positive numerators and
// denominators up to MaxInt64. Operands are drawn at every bit length,
// plus equal fractions built from a shared factor and the extremes.
func TestCmpFracAgreesWithCmp(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	pos := func() int64 {
		if rng.Intn(8) == 0 {
			return []int64{1, 2, math.MaxInt64, math.MaxInt64 - 1, 1 << 62}[rng.Intn(5)]
		}
		return rng.Int63n(int64(1)<<uint(rng.Intn(63))) + 1
	}
	check := func(a, b, c, d int64) {
		t.Helper()
		want := MustNew(a, b).Cmp(MustNew(c, d))
		if got := CmpFrac(a, b, c, d); got != want {
			t.Fatalf("CmpFrac(%d, %d, %d, %d) = %d, Rat.Cmp = %d", a, b, c, d, got, want)
		}
		if bw := big.NewRat(a, b).Cmp(big.NewRat(c, d)); bw != want {
			t.Fatalf("Rat.Cmp(%d/%d, %d/%d) = %d, big.Rat = %d", a, b, c, d, want, bw)
		}
	}
	for i := 0; i < 50000; i++ {
		a, b, c, d := pos(), pos(), pos(), pos()
		check(a, b, c, d)
		// The same value written two ways must compare equal.
		if k := rng.Int63n(1000) + 1; a <= math.MaxInt64/k && b <= math.MaxInt64/k {
			check(a, b, a*k, b*k)
		}
	}
	check(math.MaxInt64, math.MaxInt64, 1, 1)
	check(math.MaxInt64, 1, math.MaxInt64, 1)
	check(1, math.MaxInt64, 1, math.MaxInt64-1)
	check(math.MaxInt64-1, math.MaxInt64, math.MaxInt64-2, math.MaxInt64-1)
}
