// Package dgauss implements the distributed discrete Gaussian (DDGauss)
// mechanism of Kairouz, Liu & Steinke (ICML 2021) — the other distributed-DP
// mechanism the paper builds on (ref. [42]) besides DSkellam. Dordis's §5
// notes the framework "supports a wide range of distributed DP protocols";
// this package provides the second instantiation.
//
// It contains:
//
//   - an exact sampler for the discrete Gaussian N_Z(0, σ²) following
//     Canonne, Kapralov & Steinke (NeurIPS 2020): rejection from a discrete
//     Laplace, itself built from Bernoulli(exp(−γ)) coin flips, so no
//     floating-point tail truncation is involved;
//   - Rényi-DP accounting for the sum of n per-client discrete Gaussians.
//     The sum is not exactly discrete Gaussian (the family is not closed
//     under convolution — the reason DSkellam was proposed), but Kairouz et
//     al. bound its distance from N_Z(0, nσ²); SumClosenessTau exposes that
//     bound and the accountant folds it into δ;
//   - an XNoise-compatible Sampler so the add-then-remove scheme of §3 can
//     run on DDGauss noise: removal stays *exact* regardless of closure,
//     because the server regenerates bit-identical components from seeds.
//
// Samplers draw from a prg.Stream, so client and server derive identical
// noise from a shared seed — the property XNoise relies on.
package dgauss

import (
	"fmt"
	"math"

	"repro/internal/dp"
	"repro/internal/prg"
)

// bernoulliExpLE1 returns a Bernoulli(exp(−γ)) draw for 0 ≤ γ ≤ 1 using
// the alternating-series method (CKS Algorithm 1): draw A_k ~
// Bernoulli(γ/k) until the first failure at k; the result is 1 iff k is
// odd.
func bernoulliExpLE1(s *prg.Stream, gamma float64) bool {
	k := 1.0
	for {
		if s.Float64() >= gamma/k {
			// First failure at ⌈k⌉.
			return math.Mod(k, 2) == 1
		}
		k++
	}
}

// BernoulliExp returns a Bernoulli(exp(−γ)) draw for any γ ≥ 0 (CKS
// Algorithm 2): for γ > 1, require ⌊γ⌋ consecutive Bernoulli(exp(−1))
// successes, then one Bernoulli(exp(−frac)) draw.
func BernoulliExp(s *prg.Stream, gamma float64) bool {
	if gamma < 0 || math.IsNaN(gamma) {
		return false
	}
	for ; gamma > 1; gamma-- {
		if !bernoulliExpLE1(s, 1) {
			return false
		}
	}
	return bernoulliExpLE1(s, gamma)
}

// DiscreteLaplace returns a draw from the discrete Laplace distribution
// with scale t ≥ 1: P(x) ∝ exp(−|x|/t) on ℤ (CKS Algorithm 2's inner
// loop).
func DiscreteLaplace(s *prg.Stream, t int) int64 {
	if t < 1 {
		t = 1
	}
	for {
		// U uniform in {0, …, t−1}, accepted with probability exp(−U/t).
		u := int64(s.Uint64n(uint64(t)))
		if !BernoulliExp(s, float64(u)/float64(t)) {
			continue
		}
		// V ~ Geometric(1 − e^−1): number of consecutive
		// Bernoulli(exp(−1)) successes.
		var v int64
		for BernoulliExp(s, 1) {
			v++
		}
		x := u + int64(t)*v
		neg := s.Uint64n(2) == 1
		if neg && x == 0 {
			continue // avoid double-counting zero
		}
		if neg {
			return -x
		}
		return x
	}
}

// Sample returns an exact draw from the discrete Gaussian N_Z(0, σ²):
// P(x) ∝ exp(−x²/(2σ²)) on ℤ (CKS Algorithm 3: rejection from discrete
// Laplace with scale t = ⌊σ⌋+1).
func Sample(s *prg.Stream, sigma2 float64) int64 {
	if sigma2 <= 0 {
		return 0
	}
	sigma := math.Sqrt(sigma2)
	t := int(math.Floor(sigma)) + 1
	for {
		y := DiscreteLaplace(s, t)
		// Accept with probability exp(−(|y| − σ²/t)² / (2σ²)).
		d := math.Abs(float64(y)) - sigma2/float64(t)
		if BernoulliExp(s, d*d/(2*sigma2)) {
			return y
		}
	}
}

// Sampler is an xnoise.Sampler-compatible adapter: it adds an iid
// discrete Gaussian value with variance parameter `variance` to every
// out[i] from the stream. Plugging it into xnoise.Plan runs the full
// add-then-remove scheme on DDGauss noise. Removal is exact
// (seed-regenerated components cancel bit-for-bit); only the *residual*
// distribution is approximately N_Z(0, σ²·…) — quantified by
// SumClosenessTau. (The true variance of N_Z(0,σ²) is slightly below σ²
// for small σ and converges to σ² rapidly; accounting uses the σ²
// parameter, which is the conservative direction.)
func Sampler(s *prg.Stream, variance float64, out []int64) {
	for i := range out {
		out[i] += Sample(s, variance)
	}
}

// SumClosenessTau bounds the total-variation-style slack between the sum
// of n iid N_Z(0, σ²) draws and N_Z(0, nσ²) (Kairouz et al. 2021,
// Theorem 1):
//
//	τ ≤ 10 · Σ_{k=1}^{n−1} exp(−2π²σ² · k/(k+1))
//
// For per-client σ² ≥ 1 and any n, τ < 10·n·e^{−π²} ≈ 5e-4·n, and it
// decays exponentially in σ²; the accountant adds τ to δ.
func SumClosenessTau(sigma2PerClient float64, n int) float64 {
	if n <= 1 || sigma2PerClient <= 0 {
		return 0
	}
	var tau float64
	for k := 1; k < n; k++ {
		tau += math.Exp(-2 * math.Pi * math.Pi * sigma2PerClient * float64(k) / float64(k+1))
	}
	return 10 * tau
}

// PlanSigma2 returns the minimum per-round total variance σ²_total such
// that `rounds` releases of a Δ₂-sensitive query stay within (ε, δ),
// accounting for the per-client closeness slack (clients each contribute
// σ²_total/n), with the search dp.PlanSkellamMuSampled uses
// (dp.PlanVariance).
func PlanSigma2(epsilonBudget, delta, delta2 float64, rounds, n int) (float64, error) {
	if epsilonBudget <= 0 || delta <= 0 || delta2 <= 0 || rounds <= 0 || n <= 0 {
		return 0, fmt.Errorf("dgauss: invalid planning arguments")
	}
	return dp.PlanVariance(epsilonBudget, func(s2 float64) float64 {
		eps, err := ComposedEpsilon(rounds, delta2, s2, s2/float64(n), n, delta)
		if err != nil {
			return math.Inf(1)
		}
		return eps
	})
}

// ComposedEpsilon returns the ε consumed by `rounds` releases at fixed
// per-round total variance (the Fig. 8-style consumption curve for
// DDGauss). Composition runs through dp.Accountant so the RDP→(ε, δ)
// conversion (improved Balle et al. bound) is identical to the DSkellam
// path — the two mechanisms differ only in their per-release RDP and in
// DDGauss's τ slack, which is folded into δ. The discrete Gaussian
// satisfies the continuous Gaussian's concentrated-DP bound (CKS
// Theorem 4), so each release is accounted as dp.GaussianRDP at
// σ = √σ²_total.
func ComposedEpsilon(rounds int, delta2, sigma2Total, sigma2PerClient float64, n int, delta float64) (float64, error) {
	tau := SumClosenessTau(sigma2PerClient, n)
	dEff := delta - float64(rounds)*tau
	if dEff <= 0 {
		return 0, fmt.Errorf("dgauss: closeness slack exhausts δ")
	}
	a := dp.NewAccountant(nil)
	for r := 0; r < rounds; r++ {
		a.AddGaussian(delta2, math.Sqrt(sigma2Total))
	}
	return a.Epsilon(dEff), nil
}
