package rng

import (
	"math"
	"sort"
	"testing"

	"repro/internal/prg"
)

func stream(label string) *prg.Stream {
	return prg.NewStream(prg.NewSeed([]byte(label)))
}

func TestGaussianMoments(t *testing.T) {
	s := stream("gauss")
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := Gaussian(s, 2.0, 3.0)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-2.0) > 0.05 {
		t.Errorf("mean %v, want ≈2.0", mean)
	}
	if math.Abs(variance-9.0) > 0.2 {
		t.Errorf("variance %v, want ≈9.0", variance)
	}
}

func TestGaussianDeterministic(t *testing.T) {
	a := stream("det")
	b := stream("det")
	for i := 0; i < 100; i++ {
		if Gaussian(a, 0, 1) != Gaussian(b, 0, 1) {
			t.Fatal("Gaussian must be deterministic for a fixed stream")
		}
	}
}

func testPoissonMoments(t *testing.T, lambda float64, n int) {
	t.Helper()
	s := stream("poisson")
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := float64(Poisson(s, lambda))
		if v < 0 {
			t.Fatalf("Poisson(%v) returned negative %v", lambda, v)
		}
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	tol := 4 * math.Sqrt(lambda/float64(n)) * math.Sqrt(lambda) // loose CLT bound
	if tol < 0.05 {
		tol = 0.05
	}
	if math.Abs(mean-lambda) > tol+0.05*lambda {
		t.Errorf("Poisson(%v) mean %v", lambda, mean)
	}
	if math.Abs(variance-lambda) > 0.1*lambda+tol*3 {
		t.Errorf("Poisson(%v) variance %v", lambda, variance)
	}
}

func TestPoissonSmallLambda(t *testing.T)  { testPoissonMoments(t, 0.5, 100000) }
func TestPoissonMediumLambda(t *testing.T) { testPoissonMoments(t, 12, 100000) }
func TestPoissonLargeLambda(t *testing.T)  { testPoissonMoments(t, 200, 100000) }
func TestPoissonHugeLambda(t *testing.T)   { testPoissonMoments(t, 1e5, 20000) }

func TestPoissonZeroAndNegative(t *testing.T) {
	s := stream("pz")
	if Poisson(s, 0) != 0 || Poisson(s, -3) != 0 {
		t.Error("Poisson with non-positive lambda should be 0")
	}
}

func TestSkellamMoments(t *testing.T) {
	for _, mu := range []float64{0.2, 4, 80, 5000} {
		s := stream("skellam")
		const n = 60000
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			v := float64(Skellam(s, mu))
			sum += v
			sumSq += v * v
		}
		mean := sum / n
		variance := sumSq/n - mean*mean
		if math.Abs(mean) > 4*math.Sqrt(mu/n)+0.02 {
			t.Errorf("Skellam(%v) mean %v, want ≈0", mu, mean)
		}
		if math.Abs(variance-mu) > 0.1*mu+0.05 {
			t.Errorf("Skellam(%v) variance %v", mu, variance)
		}
	}
}

// TestSkellamClosedUnderSum verifies the distributional property Theorem 1
// depends on: the sum of k independent Skellam(μ) variates has variance kμ.
func TestSkellamClosedUnderSum(t *testing.T) {
	s := stream("skellam-sum")
	const k, mu, n = 8, 3.0, 30000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		var acc int64
		for j := 0; j < k; j++ {
			acc += Skellam(s, mu)
		}
		v := float64(acc)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	want := float64(k) * mu
	if math.Abs(variance-want) > 0.1*want {
		t.Errorf("sum of %d Skellam(%v): variance %v, want ≈%v", k, mu, variance, want)
	}
}

func TestDirichletSimplex(t *testing.T) {
	s := stream("dirichlet")
	for trial := 0; trial < 200; trial++ {
		v := Dirichlet(s, 1.0, 10)
		var sum float64
		for _, x := range v {
			if x < 0 {
				t.Fatalf("negative Dirichlet coordinate %v", x)
			}
			sum += x
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("Dirichlet sums to %v", sum)
		}
	}
}

func TestDirichletConcentration(t *testing.T) {
	// Small alpha → sparse draws (max coordinate near 1 often);
	// large alpha → near-uniform draws.
	s := stream("dirichlet-conc")
	maxOfDraw := func(alpha float64) float64 {
		var maxAvg float64
		const trials = 300
		for i := 0; i < trials; i++ {
			v := Dirichlet(s, alpha, 10)
			m := 0.0
			for _, x := range v {
				if x > m {
					m = x
				}
			}
			maxAvg += m
		}
		return maxAvg / trials
	}
	sparse := maxOfDraw(0.1)
	uniform := maxOfDraw(100)
	if sparse < uniform {
		t.Errorf("alpha=0.1 max %v should exceed alpha=100 max %v", sparse, uniform)
	}
	if uniform > 0.2 {
		t.Errorf("alpha=100 draws should be near uniform, max avg %v", uniform)
	}
}

func TestGammaMoments(t *testing.T) {
	for _, shape := range []float64{0.5, 1, 2.5, 9} {
		s := stream("gamma")
		const n = 100000
		var sum float64
		for i := 0; i < n; i++ {
			sum += Gamma(s, shape)
		}
		mean := sum / n
		if math.Abs(mean-shape) > 0.05*shape+0.02 {
			t.Errorf("Gamma(%v) mean %v", shape, mean)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := stream("perm")
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := Perm(s, n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		sorted := append([]int(nil), p...)
		sort.Ints(sorted)
		for i, v := range sorted {
			if v != i {
				t.Fatalf("Perm(%d) is not a permutation: %v", n, p)
			}
		}
	}
}

func TestSampleKDistinct(t *testing.T) {
	s := stream("samplek")
	got := SampleK(s, 100, 16)
	if len(got) != 16 {
		t.Fatalf("SampleK returned %d indices", len(got))
	}
	seen := map[int]bool{}
	for _, v := range got {
		if v < 0 || v >= 100 {
			t.Fatalf("index %d out of range", v)
		}
		if seen[v] {
			t.Fatalf("duplicate index %d", v)
		}
		seen[v] = true
	}
	// k > n clamps.
	if len(SampleK(s, 3, 10)) != 3 {
		t.Error("SampleK should clamp k to n")
	}
}

func TestBernoulliRate(t *testing.T) {
	s := stream("bern")
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if Bernoulli(s, 0.3) {
			hits++
		}
	}
	rate := float64(hits) / n
	if math.Abs(rate-0.3) > 0.01 {
		t.Errorf("Bernoulli(0.3) rate %v", rate)
	}
}

func BenchmarkGaussian(b *testing.B) {
	s := stream("bench-gauss")
	for i := 0; i < b.N; i++ {
		_ = Gaussian(s, 0, 1)
	}
}
