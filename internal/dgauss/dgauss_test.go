package dgauss

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/dp"
	"repro/internal/prg"
)

func stream(label string) *prg.Stream {
	return prg.NewStream(prg.NewSeed([]byte("dgauss-test"), []byte(label)))
}

// TestBernoulliExpMatchesExp checks the alternating-series Bernoulli
// sampler against math.Exp over a grid of γ, including γ > 1.
func TestBernoulliExpMatchesExp(t *testing.T) {
	s := stream("bexp")
	const n = 60000
	for _, gamma := range []float64{0, 0.1, 0.5, 0.9, 1.0, 1.7, 2.5, 4.0} {
		hits := 0
		for i := 0; i < n; i++ {
			if BernoulliExp(s, gamma) {
				hits++
			}
		}
		got := float64(hits) / n
		want := math.Exp(-gamma)
		// Binomial std ≈ sqrt(p(1-p)/n) ≤ 0.5/sqrt(n) ≈ 0.002; allow 5σ.
		if math.Abs(got-want) > 0.011 {
			t.Errorf("BernoulliExp(%v): rate %.4f, want %.4f", gamma, got, want)
		}
	}
}

// TestBernoulliExpNegativeGamma documents the defensive false on bad input.
func TestBernoulliExpNegativeGamma(t *testing.T) {
	s := stream("bexp-neg")
	if BernoulliExp(s, -1) {
		t.Error("BernoulliExp(-1) = true, want false")
	}
	if BernoulliExp(s, math.NaN()) {
		t.Error("BernoulliExp(NaN) = true, want false")
	}
}

// TestDiscreteLaplaceMoments checks mean 0 and the discrete-Laplace
// variance 2e^{1/t}/(e^{1/t}−1)² for several scales.
func TestDiscreteLaplaceMoments(t *testing.T) {
	s := stream("dlap")
	const n = 40000
	for _, scale := range []int{1, 2, 5} {
		var sum, sum2 float64
		for i := 0; i < n; i++ {
			x := float64(DiscreteLaplace(s, scale))
			sum += x
			sum2 += x * x
		}
		mean := sum / n
		variance := sum2/n - mean*mean
		e := math.Exp(1 / float64(scale))
		want := 2 * e / ((e - 1) * (e - 1))
		if math.Abs(mean) > 6*math.Sqrt(want/n) {
			t.Errorf("scale %d: mean %.4f, want ≈0", scale, mean)
		}
		if math.Abs(variance-want)/want > 0.08 {
			t.Errorf("scale %d: variance %.3f, want %.3f", scale, variance, want)
		}
	}
}

// TestSampleMoments checks the discrete Gaussian's mean and variance. For
// σ² ≥ 1 the true variance is within a hair of the parameter.
func TestSampleMoments(t *testing.T) {
	s := stream("moments")
	const n = 40000
	for _, sigma2 := range []float64{1, 4, 25, 100} {
		var sum, sum2 float64
		for i := 0; i < n; i++ {
			x := float64(Sample(s, sigma2))
			sum += x
			sum2 += x * x
		}
		mean := sum / n
		variance := sum2/n - mean*mean
		if math.Abs(mean) > 6*math.Sqrt(sigma2/n) {
			t.Errorf("σ²=%v: mean %.4f, want ≈0", sigma2, mean)
		}
		if math.Abs(variance-sigma2)/sigma2 > 0.08 {
			t.Errorf("σ²=%v: variance %.3f", sigma2, variance)
		}
	}
}

// TestSampleZeroVariance documents that non-positive variance yields 0.
func TestSampleZeroVariance(t *testing.T) {
	s := stream("zero")
	for _, sigma2 := range []float64{0, -1} {
		if got := Sample(s, sigma2); got != 0 {
			t.Errorf("Sample(σ²=%v) = %d, want 0", sigma2, got)
		}
	}
}

// TestSampleSymmetry: the discrete Gaussian is symmetric, so the empirical
// P(X>0) and P(X<0) must agree.
func TestSampleSymmetry(t *testing.T) {
	s := stream("sym")
	const n = 60000
	pos, neg := 0, 0
	for i := 0; i < n; i++ {
		switch x := Sample(s, 9); {
		case x > 0:
			pos++
		case x < 0:
			neg++
		}
	}
	if diff := math.Abs(float64(pos-neg)) / n; diff > 0.015 {
		t.Errorf("asymmetry %f: pos %d neg %d", diff, pos, neg)
	}
}

// TestDeterministicFromSeed: identical streams yield identical draws — the
// property XNoise removal relies on.
func TestDeterministicFromSeed(t *testing.T) {
	a, b := stream("det"), stream("det")
	va := make([]int64, 256)
	vb := make([]int64, 256)
	Sampler(a, 16, va)
	Sampler(b, 16, vb)
	for i := range va {
		if va[i] != vb[i] {
			t.Fatalf("draw %d: %d != %d", i, va[i], vb[i])
		}
	}
}

// TestVectorSumVariance: the sum over clients has (approximately) the sum
// of variances — the closure-in-variance property XNoise's arithmetic
// needs (exact for seed-cancelled components; approximate for residuals).
func TestVectorSumVariance(t *testing.T) {
	s := stream("sumvar")
	const dim = 20000
	const clients = 5
	const perClient = 4.0
	sum := make([]int64, dim)
	buf := make([]int64, dim)
	for c := 0; c < clients; c++ {
		clear(buf)
		Sampler(s, perClient, buf)
		for i := range sum {
			sum[i] += buf[i]
		}
	}
	var m, m2 float64
	for _, v := range sum {
		m += float64(v)
		m2 += float64(v) * float64(v)
	}
	m /= dim
	variance := m2/dim - m*m
	want := clients * perClient
	if math.Abs(variance-want)/want > 0.1 {
		t.Errorf("sum variance %.2f, want ≈%.2f", variance, want)
	}
}

// TestSumClosenessTau checks sign, monotonicity in σ² (decreasing) and n
// (increasing), and the degenerate cases.
func TestSumClosenessTau(t *testing.T) {
	if got := SumClosenessTau(1, 1); got != 0 {
		t.Errorf("n=1: τ=%v, want 0", got)
	}
	if got := SumClosenessTau(0, 10); got != 0 {
		t.Errorf("σ²=0: τ=%v, want 0", got)
	}
	t1 := SumClosenessTau(1, 10)
	t2 := SumClosenessTau(4, 10)
	if !(t1 > t2 && t2 > 0) {
		t.Errorf("τ not decreasing in σ²: τ(1)=%g τ(4)=%g", t1, t2)
	}
	t3 := SumClosenessTau(1, 100)
	if t3 <= t1 {
		t.Errorf("τ not increasing in n: τ(n=100)=%g ≤ τ(n=10)=%g", t3, t1)
	}
	// At σ² = 1 the slack is already negligible versus typical δ.
	if t3 > 1e-3 {
		t.Errorf("τ(σ²=1, n=100) = %g, expected < 1e-3", t3)
	}
}

// TestRDPGaussianEquivalence: one DDGauss release is accounted exactly as
// dp's continuous Gaussian at σ = √σ², with the closeness slack τ taken
// out of δ.
func TestRDPGaussianEquivalence(t *testing.T) {
	const s2, n, delta = 50.0, 10, 1e-3
	got, err := ComposedEpsilon(1, 3, s2, s2/n, n, delta)
	if err != nil {
		t.Fatal(err)
	}
	a := dp.NewAccountant(nil)
	a.AddGaussian(3, math.Sqrt(s2))
	if want := a.Epsilon(delta - SumClosenessTau(s2/n, n)); got != want {
		t.Errorf("ComposedEpsilon = %v, want dp's Gaussian ε %v", got, want)
	}
	if got, _ := ComposedEpsilon(1, 1, 0, 0, n, delta); !math.IsInf(got, 1) {
		t.Errorf("ε with zero variance = %v, want +Inf", got)
	}
}

// TestComposedEpsilonMonotone: ε grows with rounds and shrinks with σ².
func TestComposedEpsilonMonotone(t *testing.T) {
	e1, err := ComposedEpsilon(10, 1, 100, 100.0/16, 16, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := ComposedEpsilon(20, 1, 100, 100.0/16, 16, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	if e2 <= e1 {
		t.Errorf("ε not increasing in rounds: %v then %v", e1, e2)
	}
	e3, err := ComposedEpsilon(10, 1, 400, 400.0/16, 16, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	if e3 >= e1 {
		t.Errorf("ε not decreasing in σ²: %v then %v", e1, e3)
	}
}

// TestComposedEpsilonSlackExhaustion: tiny per-client variance makes the
// closeness slack swallow δ and the accountant must refuse.
func TestComposedEpsilonSlackExhaustion(t *testing.T) {
	if _, err := ComposedEpsilon(1000, 1, 1, 0.001, 1000, 1e-9); err == nil {
		t.Error("expected slack-exhaustion error")
	}
}

// TestPlanSigma2RoundTrip: planning a σ² then accounting with it must land
// at or below the budget, and slightly less variance must overshoot.
func TestPlanSigma2RoundTrip(t *testing.T) {
	const (
		rounds = 50
		n      = 16
		eps    = 6.0
		delta  = 1e-3
		d2     = 2.0
	)
	s2, err := PlanSigma2(eps, delta, d2, rounds, n)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ComposedEpsilon(rounds, d2, s2, s2/n, n, delta)
	if err != nil {
		t.Fatal(err)
	}
	if got > eps*1.0001 {
		t.Errorf("planned σ²=%v consumes ε=%v > budget %v", s2, got, eps)
	}
	under, err := ComposedEpsilon(rounds, d2, s2*0.9, s2*0.9/n, n, delta)
	if err != nil {
		t.Fatal(err)
	}
	if under <= eps {
		t.Errorf("0.9·σ² should overshoot the budget, got ε=%v", under)
	}
}

// TestPlanSigma2InvalidArgs covers the argument guard.
func TestPlanSigma2InvalidArgs(t *testing.T) {
	cases := [][5]float64{
		{0, 1e-3, 1, 10, 16},
		{6, 0, 1, 10, 16},
		{6, 1e-3, 0, 10, 16},
		{6, 1e-3, 1, 0, 16},
		{6, 1e-3, 1, 10, 0},
	}
	for i, c := range cases {
		if _, err := PlanSigma2(c[0], c[1], c[2], int(c[3]), int(c[4])); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

// TestQuickSampleInteger is a property test: every draw is a finite
// integer and determinism holds per (seed, σ²).
func TestQuickSampleInteger(t *testing.T) {
	f := func(seedWord uint64, sigmaQ uint16) bool {
		sigma2 := 0.5 + float64(sigmaQ%512)/8 // (0.5, 64.5)
		mk := func() *prg.Stream {
			return prg.NewStream(prg.NewSeed([]byte{byte(seedWord), byte(seedWord >> 8), byte(seedWord >> 16)}))
		}
		a, b := Sample(mk(), sigma2), Sample(mk(), sigma2)
		return a == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickTauNonNegative: τ ≥ 0 for arbitrary parameters.
func TestQuickTauNonNegative(t *testing.T) {
	f := func(nQ uint8, s2Q uint16) bool {
		n := int(nQ%64) + 1
		s2 := float64(s2Q) / 100
		return SumClosenessTau(s2, n) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSampleSigma1(b *testing.B) {
	s := stream("bench1")
	for i := 0; i < b.N; i++ {
		Sample(s, 1)
	}
}

func BenchmarkSampleSigma100(b *testing.B) {
	s := stream("bench100")
	for i := 0; i < b.N; i++ {
		Sample(s, 100)
	}
}

func BenchmarkSampler4096(b *testing.B) {
	s := stream("benchvec")
	out := make([]int64, 4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Sampler(s, 16, out)
	}
}
