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

// AddGaussianSampled composes one Gaussian release under sampling rate q.
func (a *Accountant) AddGaussianSampled(sensitivity, sigma, q float64) error {
	f, err := AmplificationFactor(q)
	if err != nil {
		return err
	}
	a.AddRDPFunc(func(alpha float64) float64 {
		return f * GaussianRDP(alpha, sensitivity, sigma)
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
	lo, hi := 1e-9, 1.0
	for SkellamEpsilonSampled(rounds, delta1, delta2, hi, delta, q) > epsilonBudget {
		hi *= 2
		if hi > 1e30 {
			return 0, fmt.Errorf("dp: cannot satisfy budget ε=%v", epsilonBudget)
		}
	}
	for i := 0; i < 120 && hi/lo > 1+1e-4; i++ {
		mid := math.Sqrt(lo * hi)
		if SkellamEpsilonSampled(rounds, delta1, delta2, mid, delta, q) > epsilonBudget {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi, nil
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
	q           float64
	acct        *Accountant
}

// NewSampledLedger creates a ledger accounting releases at sampling rate q.
func NewSampledLedger(mech Mechanism, delta, sensitivity, delta1, q float64) (*SampledLedger, error) {
	if _, err := AmplificationFactor(q); err != nil {
		return nil, err
	}
	return &SampledLedger{
		mech: mech, delta: delta, sensitivity: sensitivity, delta1: delta1,
		q: q, acct: NewAccountant(nil),
	}, nil
}

// RecordRound composes one release with the achieved central variance and
// returns the cumulative ε.
func (l *SampledLedger) RecordRound(achieved float64) float64 {
	if achieved <= 0 {
		// A round with no noise exposes the aggregate completely; model it
		// as infinite cost.
		l.acct.AddRDPFunc(func(alpha float64) float64 { return math.Inf(1) })
	} else {
		switch l.mech {
		case MechanismGaussian:
			_ = l.acct.AddGaussianSampled(l.sensitivity, math.Sqrt(achieved), l.q)
		case MechanismSkellam:
			_ = l.acct.AddSkellamSampled(l.delta1, l.sensitivity, achieved, l.q)
		}
	}
	return l.acct.Epsilon(l.delta)
}

// Epsilon returns the cumulative ε consumed so far.
func (l *SampledLedger) Epsilon() float64 { return l.acct.Epsilon(l.delta) }
