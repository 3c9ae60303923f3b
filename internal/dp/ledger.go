package dp

import "fmt"

// Mechanism selects the noise distribution used for accounting.
type Mechanism int

const (
	// MechanismGaussian accounts rounds with the Gaussian RDP bound.
	MechanismGaussian Mechanism = iota
	// MechanismSkellam accounts rounds with the Skellam RDP bound.
	MechanismSkellam
)

// RoundRecord captures one composed round.
type RoundRecord struct {
	Round            int
	PlannedVariance  float64
	AchievedVariance float64
	EpsilonSoFar     float64
}

// AchievedVariance computes the central noise variance actually present in
// the aggregate for the classical schemes of §2.3.1 given the planned
// target sigma2Star, the number of sampled clients u, and the number of
// dropouts d:
//
//   - Orig: each of u clients adds σ²*/u; survivors contribute
//     σ²*·(u−d)/u.
//   - Conservative(θ): each client adds σ²*/((1−θ)·u) so the target is met
//     when exactly θ·u clients drop; achieved is σ²*·(u−d)/((1−θ)·u).
//   - XNoise: exactly σ²* whenever d ≤ T (Theorem 1) — use
//     XNoiseAchievedVariance for the general form.
func AchievedVariance(scheme string, sigma2Star float64, u, d int, theta float64) (float64, error) {
	if u <= 0 || d < 0 || d > u {
		return 0, fmt.Errorf("dp: invalid u=%d d=%d", u, d)
	}
	switch scheme {
	case "orig":
		return sigma2Star * float64(u-d) / float64(u), nil
	case "conservative":
		if theta < 0 || theta >= 1 {
			return 0, fmt.Errorf("dp: conservative θ=%v out of [0,1)", theta)
		}
		return sigma2Star * float64(u-d) / ((1 - theta) * float64(u)), nil
	default:
		return 0, fmt.Errorf("dp: unknown scheme %q", scheme)
	}
}
