package dp

import (
	"math"
	"testing"
	"testing/quick"
)

// TestQuickRDPCompositionAdditive: composing k identical releases equals
// k· the single-release RDP at every order — the accountant is linear.
func TestQuickRDPCompositionAdditive(t *testing.T) {
	f := func(kQ uint8, sensQ, sigmaQ uint16) bool {
		k := int(kQ%16) + 1
		sens := 0.5 + float64(sensQ%100)/10
		sigma := 1 + float64(sigmaQ%1000)/10
		one := NewAccountant(nil)
		one.AddGaussian(sens, sigma)
		many := NewAccountant(nil)
		for i := 0; i < k; i++ {
			many.AddGaussian(sens, sigma)
		}
		// Composed ε must not exceed k·ε (subadditivity of the conversion)
		// and must be at least ε (monotone in composition).
		e1 := one.Epsilon(1e-5)
		ek := many.Epsilon(1e-5)
		return ek <= float64(k)*e1+1e-9 && ek >= e1-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickEpsilonMonotoneInNoise: more noise never costs more budget.
func TestQuickEpsilonMonotoneInNoise(t *testing.T) {
	f := func(sigmaQ uint16, roundsQ uint8) bool {
		sigma := 1 + float64(sigmaQ%500)/10
		rounds := int(roundsQ%20) + 1
		e1 := gaussianEpsilon(rounds, 1, sigma, 1e-5)
		e2 := gaussianEpsilon(rounds, 1, sigma*1.5, 1e-5)
		return e2 <= e1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickSkellamDominatedByGaussian: at equal variance the Skellam RDP
// bound is never below the Gaussian bound (its extra terms are
// non-negative), so Skellam can never need *less* noise than the Gaussian
// mechanism for the same budget.
func TestQuickSkellamDominatedByGaussian(t *testing.T) {
	f := func(alphaQ, muQ uint16) bool {
		alpha := 1.5 + float64(alphaQ%64)
		mu := 10 + float64(muQ)
		delta2 := 3.0
		delta1 := delta2 * delta2
		g := GaussianRDP(alpha, delta2, math.Sqrt(mu))
		s := SkellamRDP(alpha, delta1, delta2, mu)
		return s >= g-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestQuickEpsilonMonotoneInDelta: relaxing δ never increases ε.
func TestQuickEpsilonMonotoneInDelta(t *testing.T) {
	f := func(sigmaQ uint16) bool {
		sigma := 2 + float64(sigmaQ%200)/10
		a := NewAccountant(nil)
		a.AddGaussian(1, sigma)
		return a.Epsilon(1e-4) <= a.Epsilon(1e-8)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
