package dp

import (
	"math"
	"testing"
)

// gaussianEpsilon is the (ε, δ) cost of rounds Gaussian releases at fixed
// sensitivity and sigma.
func gaussianEpsilon(rounds int, sensitivity, sigma, delta float64) float64 {
	a := NewAccountant(nil)
	for r := 0; r < rounds; r++ {
		a.AddGaussian(sensitivity, sigma)
	}
	return a.Epsilon(delta)
}

func TestGaussianRDPScaling(t *testing.T) {
	// ε(α) = αΔ²/(2σ²): doubling σ quarters the RDP.
	a := GaussianRDP(2, 1, 1)
	b := GaussianRDP(2, 1, 2)
	if math.Abs(a/b-4) > 1e-12 {
		t.Errorf("RDP ratio %v, want 4", a/b)
	}
	if !math.IsInf(GaussianRDP(2, 1, 0), 1) {
		t.Error("zero sigma should give infinite RDP")
	}
}

func TestEpsilonMonotoneInRounds(t *testing.T) {
	prev := 0.0
	for rounds := 1; rounds <= 64; rounds *= 2 {
		eps := gaussianEpsilon(rounds, 1, 10, 1e-5)
		if eps <= prev {
			t.Fatalf("ε must grow with composition: %d rounds → %v (prev %v)", rounds, eps, prev)
		}
		prev = eps
	}
}

func TestEpsilonMonotoneInSigma(t *testing.T) {
	prev := math.Inf(1)
	for _, sigma := range []float64{1, 2, 4, 8, 16} {
		eps := gaussianEpsilon(10, 1, sigma, 1e-5)
		if eps >= prev {
			t.Fatalf("ε must shrink with σ: σ=%v → %v (prev %v)", sigma, eps, prev)
		}
		prev = eps
	}
}

func TestEpsilonAgainstKnownGaussianValue(t *testing.T) {
	// Single Gaussian release with σ/Δ = 1 and δ=1e-5. The classical
	// analytic mechanism gives ε ≈ 4.9; RDP accounting is looser but must
	// land in a sane band (3, 10).
	eps := gaussianEpsilon(1, 1, 1, 1e-5)
	if eps < 3 || eps > 10 {
		t.Errorf("ε = %v out of expected band for σ=Δ", eps)
	}
	// Large σ: ε must be small.
	if eps := gaussianEpsilon(1, 1, 100, 1e-5); eps > 0.2 {
		t.Errorf("σ=100Δ should cost little: ε=%v", eps)
	}
}

func TestEpsilonInvalidDelta(t *testing.T) {
	a := NewAccountant(nil)
	a.AddGaussian(1, 1)
	if !math.IsInf(a.Epsilon(0), 1) || !math.IsInf(a.Epsilon(1), 1) {
		t.Error("δ outside (0,1) should give +Inf")
	}
}

func TestSkellamConvergesToGaussian(t *testing.T) {
	// As μ → ∞ with matched variance, the Skellam RDP bound approaches the
	// Gaussian bound αΔ₂²/(2μ).
	alpha, d1, d2 := 8.0, 30.0, 10.0
	for _, mu := range []float64{1e6, 1e8, 1e10} {
		sk := SkellamRDP(alpha, d1, d2, mu)
		ga := alpha * d2 * d2 / (2 * mu)
		if sk < ga {
			t.Fatalf("Skellam bound %v below Gaussian limit %v at μ=%v", sk, ga, mu)
		}
		if (sk-ga)/ga > 0.01 {
			t.Fatalf("Skellam bound %v too far above Gaussian %v at μ=%v", sk, ga, mu)
		}
	}
}

func TestSkellamRDPMonotoneInMu(t *testing.T) {
	prev := math.Inf(1)
	for _, mu := range []float64{10, 100, 1000, 1e4} {
		v := SkellamRDP(4, 10, 5, mu)
		if v >= prev {
			t.Fatalf("Skellam RDP must decrease in μ: μ=%v → %v", mu, v)
		}
		prev = v
	}
	if !math.IsInf(SkellamRDP(4, 10, 5, 0), 1) {
		t.Error("zero μ should be infinite")
	}
}

func TestCompositionAdditivity(t *testing.T) {
	// Composing k identical releases multiplies RDP by k at every order.
	a := NewAccountant(nil)
	b := NewAccountant(nil)
	for i := 0; i < 5; i++ {
		a.AddGaussian(1, 3)
	}
	b.AddRDPFunc(func(alpha float64) float64 { return 5 * GaussianRDP(alpha, 1, 3) })
	if math.Abs(a.Epsilon(1e-5)-b.Epsilon(1e-5)) > 1e-9 {
		t.Error("composition should be additive in RDP space")
	}
}

func TestPlanSkellamMuMeetsBudget(t *testing.T) {
	const (
		eps, delta = 6.0, 1e-3
		d2         = 100.0 // scaled L2 sensitivity
		rounds     = 50
	)
	d1 := d2 * 10 // loose L1 bound
	mu, err := PlanSkellamMuSampled(eps, delta, d1, d2, rounds, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := SkellamEpsilonSampled(rounds, d1, d2, mu, delta, 1); got > eps {
		t.Errorf("planned μ=%v exceeds budget: ε=%v", mu, got)
	}
	if under := SkellamEpsilonSampled(rounds, d1, d2, mu*0.98, delta, 1); under <= eps {
		t.Errorf("μ not minimal")
	}
}

func TestMoreRoundsNeedMoreNoise(t *testing.T) {
	mu150, _ := PlanSkellamMuSampled(6, 1e-3, 1000, 100, 150, 1)
	mu300, _ := PlanSkellamMuSampled(6, 1e-3, 1000, 100, 300, 1)
	if mu300 <= mu150 {
		t.Errorf("300 rounds should need more noise than 150: %v vs %v", mu300, mu150)
	}
}
