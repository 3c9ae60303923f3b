// Package dp implements differential-privacy accounting, offline noise
// planning, and online budget tracking for distributed DP in federated
// learning, mirroring §2.2 and §2.3.1 of the Dordis paper.
//
// The workflow is the paper's:
//
//  1. Offline noise planning: given a global budget (ε_G, δ_G) and a round
//     count R, compute the minimum per-round central noise variance σ²*
//     such that composing R releases stays within budget
//     (PlanSkellamMuSampled, with q = 1 when every client takes part in
//     every round; PlanVariance is the search it shares with
//     dgauss.PlanSigma2).
//  2. Online noise enforcement: every round actually releases an aggregate
//     perturbed with some achieved variance (exactly σ²* under XNoise;
//     possibly less under Orig with dropout — every client-noised scheme
//     reads it from xnoise.Plan.AchievedVariance). SampledLedger replays the
//     achieved noise levels at the run's sampling rate and reports the ε
//     actually consumed, which is how Figures 1b–1d and 8 are produced.
//
// Accounting is performed in Rényi-DP (RDP) space over a grid of orders α:
// per-round RDP values add under composition, and the final (ε, δ)
// guarantee is the minimum over orders of the RDP-to-DP conversion.
package dp

import (
	"fmt"
	"math"
)

// Accountant composes RDP guarantees over a fixed grid of orders.
type Accountant struct {
	orders []float64
	rdp    []float64 // accumulated RDP at each order
}

// DefaultOrders returns the standard order grid used throughout the
// repository: a dense low range (where subgaussian mechanisms usually
// optimize) plus exponentially spaced large orders.
func DefaultOrders() []float64 {
	var orders []float64
	for a := 1.25; a < 10; a += 0.25 {
		orders = append(orders, a)
	}
	for a := 10.0; a <= 64; a += 2 {
		orders = append(orders, a)
	}
	for a := 80.0; a <= 1024; a *= 1.3 {
		orders = append(orders, a)
	}
	return orders
}

// NewAccountant creates an accountant over the given orders (or
// DefaultOrders if nil).
func NewAccountant(orders []float64) *Accountant {
	if orders == nil {
		orders = DefaultOrders()
	}
	cp := make([]float64, len(orders))
	copy(cp, orders)
	return &Accountant{orders: cp, rdp: make([]float64, len(cp))}
}

// GaussianRDP returns the RDP of order alpha of the Gaussian mechanism with
// the given L2 sensitivity and noise standard deviation:
// ε(α) = α·Δ²/(2σ²).
func GaussianRDP(alpha, sensitivity, sigma float64) float64 {
	if sigma <= 0 {
		return math.Inf(1)
	}
	return alpha * sensitivity * sensitivity / (2 * sigma * sigma)
}

// SkellamRDP returns an upper bound on the RDP of order alpha of the
// Skellam mechanism with per-coordinate variance mu and integer
// sensitivities delta1 (L1) and delta2 (L2), following Agarwal, Kairouz &
// Liu, "The Skellam Mechanism for Differentially Private Federated
// Learning" (NeurIPS 2021):
//
//	ε(α) ≤ α·Δ₂²/(2μ) + min( (2α−1)·Δ₂² + 6·Δ₁ , 3·Δ₁ ) / (4μ²) · ...
//
// concretely implemented as the Gaussian-limit term plus the paper's
// correction, which vanishes as μ → ∞:
//
//	ε(α) ≤ α·Δ₂²/(2μ) + min( ((2α−1)·Δ₂² + 6·Δ₁) / (4μ²), 3·Δ₁/(2μ) )
func SkellamRDP(alpha, delta1, delta2, mu float64) float64 {
	if mu <= 0 {
		return math.Inf(1)
	}
	base := alpha * delta2 * delta2 / (2 * mu)
	corr := math.Min(
		((2*alpha-1)*delta2*delta2+6*delta1)/(4*mu*mu),
		3*delta1/(2*mu),
	)
	return base + corr
}

// AddGaussian composes one Gaussian release.
func (a *Accountant) AddGaussian(sensitivity, sigma float64) {
	for i, alpha := range a.orders {
		a.rdp[i] += GaussianRDP(alpha, sensitivity, sigma)
	}
}

// AddRDPFunc composes one release described by an arbitrary order→RDP
// function (the hook for custom mechanisms; examples/custom_mechanism
// uses it).
func (a *Accountant) AddRDPFunc(f func(alpha float64) float64) {
	for i, alpha := range a.orders {
		a.rdp[i] += f(alpha)
	}
}

// Epsilon converts the composed RDP to an (ε, δ) guarantee using the
// improved conversion of Balle et al. (2020):
//
//	ε = rdp(α) + log((α−1)/α) − (log δ + log α)/(α−1)
//
// minimized over the order grid. It falls back to the classical
// ε = rdp(α) + log(1/δ)/(α−1) whenever that is smaller (it never is for
// the improved bound, but guarding costs nothing).
func (a *Accountant) Epsilon(delta float64) float64 {
	if delta <= 0 || delta >= 1 {
		return math.Inf(1)
	}
	// With nothing composed the guarantee is exact 0-DP; the finite order
	// grid would otherwise report a spurious conversion residue.
	allZero := true
	for _, r := range a.rdp {
		if r != 0 {
			allZero = false
			break
		}
	}
	if allZero {
		return 0
	}
	best := math.Inf(1)
	for i, alpha := range a.orders {
		if alpha <= 1 {
			continue
		}
		r := a.rdp[i]
		classic := r + math.Log(1/delta)/(alpha-1)
		improved := r + math.Log((alpha-1)/alpha) - (math.Log(delta)+math.Log(alpha))/(alpha-1)
		e := math.Min(classic, improved)
		if e < best {
			best = e
		}
	}
	if best < 0 {
		best = 0
	}
	return best
}

// PlanVariance returns the smallest noise variance whose ε, as epsilonAt
// reports it, stays within the budget; epsilonAt must fall as the variance
// grows. It doubles an upper end from 1 until it meets the budget, then
// bisects [10⁻⁹, hi] geometrically until hi/lo ≤ 1+10⁻⁴ and returns hi,
// the end that meets it. Skellam (PlanSkellamMuSampled) and DDGauss
// (dgauss.PlanSigma2) planning both run through it.
func PlanVariance(epsilonBudget float64, epsilonAt func(variance float64) float64) (float64, error) {
	lo, hi := 1e-9, 1.0
	for epsilonAt(hi) > epsilonBudget {
		hi *= 2
		if hi > 1e30 {
			return 0, fmt.Errorf("dp: cannot satisfy budget ε=%v", epsilonBudget)
		}
	}
	for i := 0; i < 120 && hi/lo > 1+1e-4; i++ {
		mid := math.Sqrt(lo * hi)
		if epsilonAt(mid) > epsilonBudget {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi, nil
}
