package ticks

import (
	"math"
	"math/big"
	"testing"
)

// addReduceFirst is Add as it was before it learned to reduce once:
// reduce both operands, cross-multiply, reduce the sum, and take the
// fixed-point fallback on overflow. It is the oracle Add must match
// bit for bit, fallback included.
func addReduceFirst(f, g Frac) Frac {
	f, g = f.reduce(), g.reduce()
	if n1, ok1 := mulOK(f.Num, g.Den); ok1 {
		if n2, ok2 := mulOK(g.Num, f.Den); ok2 {
			if d, ok3 := mulOK(f.Den, g.Den); ok3 {
				if s, ok4 := addOK(n1, n2); ok4 {
					return Frac{s, d}.reduce()
				}
			}
		}
	}
	const grid = 1_000_000_000_000
	return Frac{fixedPoint(f, grid) + fixedPoint(g, grid), grid}.reduce()
}

// ratOf is f as a math/big rational.
func ratOf(f Frac) *big.Rat { return big.NewRat(f.Num, f.Den) }

func TestFracAddMatchesReduceFirst(t *testing.T) {
	cases := []struct {
		name string
		a, b Frac
	}{
		{"zero-value-operands", Frac{}, Frac{}},
		{"zero-value-left", Frac{}, Frac{2, 6}},
		{"zero-numerators", Frac{0, 5}, Frac{0, 7}},
		{"unreduced-small", Frac{2, 4}, Frac{3, 9}},
		{"sum-to-one", Frac{27_000, 270_000}, Frac{243_000, 270_000}},
		{"negative-term", Frac{1, 2}, Frac{-1, 3}},
		{"cancels-to-zero", Frac{5, 10}, Frac{-1, 2}},
		{"max-period", Frac{1, int64(MaxPeriod)}, Frac{int64(MaxPeriod) - 1, int64(MaxPeriod)}},
		// Reducible operands whose unreduced cross-products overflow:
		// Add must retry on the reduced operands, not fall back.
		{"reducible-overflow", Frac{1 << 40, 1 << 41}, Frac{1 << 40, 1 << 41}},
		{"reducible-overflow-mixed", Frac{3 << 40, 1 << 42}, Frac{5 << 39, 3 << 41}},
		{"reducible-overflow-den", Frac{1, 1 << 20}, Frac{1 << 41, 1 << 62}},
		// Co-prime huge denominators: the fixed-point grid, and the
		// float64 rounding beyond it.
		{"fixed-point-fallback", Frac{1, (1 << 31) - 1}, Frac{1, (1 << 61) - 1}},
		{"float-fallback", Frac{(1 << 61) - 2, (1 << 61) - 1}, Frac{(1 << 59) - 1, (1 << 60) - 1}},
		{"negative-denominator", Frac{1, -3}, Frac{1, 6}},
		{"negative-denominator-both", Frac{4, -6}, Frac{-2, -8}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, want := c.a.Add(c.b), addReduceFirst(c.a, c.b)
			if got != want {
				t.Errorf("%v + %v = %v, reduce-first gives %v", c.a, c.b, got, want)
			}
			if got, want := c.a.Sub(c.b), addReduceFirst(c.a, Frac{-c.b.Num, c.b.Den}); got != want {
				t.Errorf("%v - %v = %v, reduce-first gives %v", c.a, c.b, got, want)
			}
		})
	}
}

// TestFracAddReducibleOverflowIsExact pins the case the reduce-once
// path must not round: the unreduced products overflow, the reduced
// ones do not, so the sum is exact.
func TestFracAddReducibleOverflowIsExact(t *testing.T) {
	a := Frac{1 << 40, 1 << 41}
	if _, ok := addExact(a, a); ok {
		t.Fatal("unreduced cross-products fit int64; the case tests nothing")
	}
	if got := a.Add(a); got != FracOne {
		t.Errorf("1/2 + 1/2 written as 2^40/2^41 = %v, want 1/1", got)
	}
}

// FuzzFracAdd checks the exact-fraction arithmetic that admission
// control leans on: agreement with the reduce-first oracle on every
// input, agreement with math/big.Rat whenever the exact path applies,
// commutativity, the identity, sign behaviour of Sub, and agreement
// with float arithmetic to fixed-point tolerance.
func FuzzFracAdd(f *testing.F) {
	f.Add(int64(1), int64(3), int64(1), int64(2))
	f.Add(int64(27_000), int64(270_000), int64(300_000), int64(900_000))
	f.Add(int64(1), int64(4_293_000_000), int64(1), int64(3))
	f.Fuzz(func(t *testing.T, an, ad, bn, bd int64) {
		if ad <= 0 || bd <= 0 || an == math.MinInt64 || bn == math.MinInt64 {
			t.Skip()
		}
		a := Frac{an, ad}
		b := Frac{bn, bd}
		ab := a.Add(b)
		if want := addReduceFirst(a, b); ab != want {
			t.Fatalf("%v + %v = %v, reduce-first gives %v", a, b, ab, want)
		}
		if _, exact := addExact(a.reduce(), b.reduce()); exact {
			if ratOf(ab).Cmp(new(big.Rat).Add(ratOf(a), ratOf(b))) != 0 {
				t.Fatalf("%v + %v = %v, math/big gives %v", a, b, ab, new(big.Rat).Add(ratOf(a), ratOf(b)))
			}
			if ab.Den <= 0 || gcd(ab.Num, ab.Den) != 1 {
				t.Fatalf("%v + %v = %v, not in lowest terms", a, b, ab)
			}
		}
		if an < 0 || bn < 0 || an > ad || bn > bd {
			return // the remaining checks hold for rates in [0,1]
		}
		ba := b.Add(a)
		if ab.Cmp(ba) != 0 {
			t.Fatalf("Add not commutative: %v vs %v", ab, ba)
		}
		if z := a.Add(FracZero); z.Cmp(a.reduce()) != 0 {
			t.Fatalf("a+0 = %v, want %v", z, a)
		}
		d := ab.Sub(b)
		if d.Cmp(a.reduce()) != 0 {
			t.Fatalf("(a+b)-b = %v, want %v", d, a)
		}
		want := a.Float() + b.Float()
		got := ab.Float()
		if diff := got - want; diff < -1e-6 || diff > 1e-6 {
			t.Fatalf("float mismatch: %v vs %v", got, want)
		}
	})
}
