package dp

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
