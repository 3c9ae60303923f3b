// Package xnoise implements XNoise, Dordis's dropout-resilient
// 'add-then-remove' noise-enforcement scheme (paper §3), plus the
// 'rebasing' baseline it is compared against (§3.1) and the network
// footprint model behind Table 3.
//
// The scheme, briefly: in a round with sampled set U, dropout tolerance T
// and target central noise variance σ²*, every client adds excessive noise
// of level σ²*/(|U|−T), decomposed into T+1 seed-generated additive
// components
//
//	n_{i,0} ~ χ(σ²*/|U|),   n_{i,k} ~ χ(σ²* / ((|U|−k+1)(|U|−k))),  k=1..T.
//
// After aggregation, if |D| ≤ T clients dropped, the server removes every
// surviving client's components with index k > |D|; the residual noise is
// then exactly σ²* (Theorem 1). Under mild collusion tolerance T_C each
// component is inflated by t/(t−T_C) where t is the SecAgg threshold
// (§3.3, "Handling Mild Collusion").
//
// Definition 1 — the noise of Orig, Early, Con-θ and local DP — is a Plan
// with T = 0: one component of level σ²*/|U|, nothing removable, and an
// AchievedVariance of σ²*·(|U|−|D|)/|U| that dropout dents. Those schemes
// differ only in the target they plan (σ²*, σ²*/(1−θ), |U|·σ²*); their
// Threshold is |U|, since it bounds nothing but collusion inflation.
//
// Components are drawn by a Sampler, which adds into its output so that
// sums of components need no scratch vector. The Skellam samplers are a
// versioned protocol contract (SamplerForEpoch): for k ≥ 1 the variance
// above is a few hundredths per coordinate at realistic |U|, which is why
// the default epoch samples in time proportional to the noise mass rather
// than to the dimension.
package xnoise

import (
	"fmt"
	"math"
)

// Plan fixes the noise decomposition for one training round. Variances are
// expressed in whatever units the chosen noise distribution uses (for the
// DSkellam instantiation: integer-grid Skellam variance μ).
type Plan struct {
	NumClients         int     // |U|, sampled clients
	DropoutTolerance   int     // T, max dropouts the round tolerates
	CollusionTolerance int     // T_C, max colluding clients (0 = semi-honest, no inflation)
	Threshold          int     // t, the SecAgg secret-sharing threshold
	TargetVariance     float64 // σ²*, central noise target for the aggregate
}

// Validate checks the plan against the constraints of §3.2–§3.4:
// 0 ≤ T < |U|, 0 ≤ T_C < t ≤ |U|, and (for meaningful secrecy under
// dropout) t ≤ |U| − T so that survivors alone can reach the threshold.
func (p Plan) Validate() error {
	switch {
	case p.NumClients <= 0:
		return fmt.Errorf("xnoise: NumClients must be positive, got %d", p.NumClients)
	case p.DropoutTolerance < 0 || p.DropoutTolerance >= p.NumClients:
		return fmt.Errorf("xnoise: DropoutTolerance %d out of [0, %d)", p.DropoutTolerance, p.NumClients)
	case p.Threshold < 1 || p.Threshold > p.NumClients:
		return fmt.Errorf("xnoise: Threshold %d out of [1, %d]", p.Threshold, p.NumClients)
	case p.Threshold > p.NumClients-p.DropoutTolerance:
		return fmt.Errorf("xnoise: Threshold %d unreachable after %d dropouts of %d clients",
			p.Threshold, p.DropoutTolerance, p.NumClients)
	case p.CollusionTolerance < 0 || p.CollusionTolerance >= p.Threshold:
		return fmt.Errorf("xnoise: CollusionTolerance %d out of [0, t=%d)", p.CollusionTolerance, p.Threshold)
	case p.TargetVariance <= 0:
		return fmt.Errorf("xnoise: TargetVariance must be positive, got %v", p.TargetVariance)
	case math.IsNaN(p.TargetVariance) || math.IsInf(p.TargetVariance, 0):
		return fmt.Errorf("xnoise: TargetVariance %v not finite", p.TargetVariance)
	}
	return nil
}

// NumComponents returns T+1, the number of additive noise components each
// client generates.
func (p Plan) NumComponents() int { return p.DropoutTolerance + 1 }

// InflationFactor returns t/(t−T_C), the noise inflation applied to every
// component to neutralize up to T_C colluding clients (§3.3). It is 1 in
// the semi-honest, collusion-free setting.
func (p Plan) InflationFactor() float64 {
	if p.CollusionTolerance == 0 {
		return 1
	}
	return float64(p.Threshold) / float64(p.Threshold-p.CollusionTolerance)
}

// ComponentVariance returns the variance of component k ∈ [0, T]:
//
//	k = 0: σ²*/|U| · infl
//	k ≥ 1: σ²* / ((|U|−k+1)(|U|−k)) · infl
func (p Plan) ComponentVariance(k int) (float64, error) {
	if k < 0 || k > p.DropoutTolerance {
		return 0, fmt.Errorf("xnoise: component index %d out of [0, %d]", k, p.DropoutTolerance)
	}
	u := float64(p.NumClients)
	infl := p.InflationFactor()
	if k == 0 {
		return p.TargetVariance / u * infl, nil
	}
	kk := float64(k)
	return p.TargetVariance / ((u - kk + 1) * (u - kk)) * infl, nil
}

// PerClientVariance returns the total excessive noise each client adds:
// σ²*/(|U|−T) · infl — the telescoped sum of all components.
func (p Plan) PerClientVariance() float64 {
	return p.TargetVariance / float64(p.NumClients-p.DropoutTolerance) * p.InflationFactor()
}

// RemovalComponents returns the component indices the server removes from
// every surviving client's contribution when numDropped clients dropped:
// k ∈ [numDropped+1, T]. The returned range is empty when numDropped ≥ T.
func (p Plan) RemovalComponents(numDropped int) []int {
	if numDropped < 0 {
		numDropped = 0
	}
	var ks []int
	for k := numDropped + 1; k <= p.DropoutTolerance; k++ {
		ks = append(ks, k)
	}
	return ks
}

// AggregateVarianceBeforeRemoval returns the noise level of the aggregate
// right after summation: σ²*·(|U|−|D|)/(|U|−T) · infl (first identity in
// the proof of Theorem 1).
func (p Plan) AggregateVarianceBeforeRemoval(numDropped int) float64 {
	u, tt, d := float64(p.NumClients), float64(p.DropoutTolerance), float64(numDropped)
	return p.TargetVariance * (u - d) / (u - tt) * p.InflationFactor()
}

// AchievedVariance returns the central noise variance of the aggregate
// after removal. For |D| ≤ T this is exactly σ²*·infl (Theorem 1 with the
// §3.3 inflation); for |D| > T the round has failed its tolerance and the
// noise is whatever the survivors contributed (no removal happens).
func (p Plan) AchievedVariance(numDropped int) float64 {
	if numDropped > p.DropoutTolerance {
		return p.AggregateVarianceBeforeRemoval(numDropped)
	}
	removed := 0.0
	for _, k := range p.RemovalComponents(numDropped) {
		cv, err := p.ComponentVariance(k)
		if err != nil {
			panic(err) // unreachable: k comes from RemovalComponents
		}
		removed += cv
	}
	survivors := float64(p.NumClients - numDropped)
	return p.AggregateVarianceBeforeRemoval(numDropped) - survivors*removed
}
