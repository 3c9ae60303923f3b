package dp

import (
	"fmt"
	"math"
)

// Privacy amplification by subsampling. When each round samples a fraction
// q of the population (paper §2.1: "the server dynamically samples a small
// subset of clients"), the per-round privacy loss shrinks. We use the
// standard first-order approximation for subsampled subgaussian
// mechanisms,
//
//	RDP_sampled(α) ≈ q² · RDP(α),
//
// which is the leading term of the exact bounds (Wang–Balle–Kasiviswanathan
// 2019; Mironov–Talwar–Zhang 2019) and tight as q → 0. All schemes in an
// experiment use the same accounting, so comparisons between Orig, XNoise,
// Early, and Con-θ are unaffected by the residual approximation error.

// AmplificationFactor returns the RDP multiplier for sampling rate q.
func AmplificationFactor(q float64) (float64, error) {
	if q <= 0 || q > 1 {
		return 0, fmt.Errorf("dp: sampling rate %v out of (0,1]", q)
	}
	return q * q, nil
}

// AddSkellamSampled composes one Skellam release under sampling rate q.
func (a *Accountant) AddSkellamSampled(delta1, delta2, mu, q float64) error {
	f, err := AmplificationFactor(q)
	if err != nil {
		return err
	}
	a.AddRDPFunc(func(alpha float64) float64 {
		return f * SkellamRDP(alpha, delta1, delta2, mu)
	})
	return nil
}

// SkellamEpsilonSampled is the (ε, δ) cost of R subsampled Skellam
// releases.
func SkellamEpsilonSampled(rounds int, delta1, delta2, mu, delta, q float64) float64 {
	a := NewAccountant(nil)
	for r := 0; r < rounds; r++ {
		if err := a.AddSkellamSampled(delta1, delta2, mu, q); err != nil {
			return math.Inf(1)
		}
	}
	return a.Epsilon(delta)
}

// PlanSkellamMuSampled plans the minimum per-round central Skellam
// variance under sampling rate q.
func PlanSkellamMuSampled(epsilonBudget, delta, delta1, delta2 float64, rounds int, q float64) (float64, error) {
	if _, err := AmplificationFactor(q); err != nil {
		return 0, err
	}
	if epsilonBudget <= 0 || rounds <= 0 || delta2 <= 0 {
		return 0, fmt.Errorf("dp: invalid plan parameters eps=%v rounds=%d Δ2=%v",
			epsilonBudget, rounds, delta2)
	}
	return PlanVariance(epsilonBudget, func(mu float64) float64 {
		return SkellamEpsilonSampled(rounds, delta1, delta2, mu, delta, q)
	})
}

// SampledLedger tracks the privacy budget actually consumed over a
// training run, with subsampling amplification at rate q (q = 1 is a run in
// which every client participates every round).
//
// Each training round releases one aggregate update perturbed with an
// achieved central noise variance. Under XNoise the achieved variance
// always equals the planned σ²* (Theorem 1); under Orig with dropout it is
// lower, consuming more budget than planned — the effect Figures 1 and 8
// quantify. The ledger composes the achieved rounds and answers "how much ε
// has been spent so far".
type SampledLedger struct {
	mech        Mechanism
	delta       float64
	sensitivity float64
	delta1      float64
	f           float64 // AmplificationFactor(q)
	acct        *Accountant
}

// NewSampledLedger creates a ledger accounting releases of mech at
// sampling rate q. It refuses a mechanism it has no RDP bound for.
func NewSampledLedger(mech Mechanism, delta, sensitivity, delta1, q float64) (*SampledLedger, error) {
	if mech != MechanismGaussian && mech != MechanismSkellam {
		return nil, fmt.Errorf("dp: unknown mechanism %d", mech)
	}
	f, err := AmplificationFactor(q)
	if err != nil {
		return nil, err
	}
	return &SampledLedger{
		mech: mech, delta: delta, sensitivity: sensitivity, delta1: delta1,
		f: f, acct: NewAccountant(nil),
	}, nil
}

// RecordRound composes one release with the achieved central variance and
// returns the cumulative ε.
func (l *SampledLedger) RecordRound(achieved float64) float64 {
	var rdp func(alpha float64) float64
	switch {
	case achieved <= 0:
		// A round with no noise exposes the aggregate completely; model it
		// as infinite cost.
		rdp = func(float64) float64 { return math.Inf(1) }
	case l.mech == MechanismGaussian:
		sigma := math.Sqrt(achieved)
		rdp = func(alpha float64) float64 { return l.f * GaussianRDP(alpha, l.sensitivity, sigma) }
	default: // MechanismSkellam, the only other one NewSampledLedger admits
		rdp = func(alpha float64) float64 { return l.f * SkellamRDP(alpha, l.delta1, l.sensitivity, achieved) }
	}
	l.acct.AddRDPFunc(rdp)
	return l.acct.Epsilon(l.delta)
}

// Epsilon returns the cumulative ε consumed so far.
func (l *SampledLedger) Epsilon() float64 { return l.acct.Epsilon(l.delta) }
