package dp

// Mechanism selects the noise distribution used for accounting.
type Mechanism int

const (
	// MechanismGaussian accounts rounds with the Gaussian RDP bound.
	MechanismGaussian Mechanism = iota
	// MechanismSkellam accounts rounds with the Skellam RDP bound.
	MechanismSkellam
)
