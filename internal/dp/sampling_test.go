package dp

import (
	"math"
	"testing"
)

func TestAmplificationFactor(t *testing.T) {
	f, err := AmplificationFactor(0.16)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f-0.0256) > 1e-12 {
		t.Errorf("factor %v, want 0.0256", f)
	}
	if _, err := AmplificationFactor(0); err == nil {
		t.Error("q=0 should error")
	}
	if _, err := AmplificationFactor(1.5); err == nil {
		t.Error("q>1 should error")
	}
}

func TestSamplingReducesEpsilon(t *testing.T) {
	full := SkellamEpsilonSampled(100, 1000, 100, 1e7, 1e-3, 1.0)
	sampled := SkellamEpsilonSampled(100, 1000, 100, 1e7, 1e-3, 0.16)
	if sampled >= full {
		t.Errorf("subsampling should reduce ε: %v vs %v", sampled, full)
	}
}

func TestSampledPlanNeedsLessNoise(t *testing.T) {
	muFull, err := PlanSkellamMuSampled(6, 1e-3, 1000, 100, 150, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	muSampled, err := PlanSkellamMuSampled(6, 1e-3, 1000, 100, 150, 0.16)
	if err != nil {
		t.Fatal(err)
	}
	if muSampled >= muFull {
		t.Errorf("sampled plan μ=%v should be below full μ=%v", muSampled, muFull)
	}
	// And it meets the budget.
	if got := SkellamEpsilonSampled(150, 1000, 100, muSampled, 1e-3, 0.16); got > 6 {
		t.Errorf("planned μ exceeds budget: ε=%v", got)
	}
}

func TestSampledLedgerMatchesFullAtQ1(t *testing.T) {
	sampled, err := NewSampledLedger(MechanismSkellam, 1e-3, 100, 1000, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 10; r++ {
		sampled.RecordRound(1e7)
	}
	// At q = 1 the amplification factor is exactly 1.0, so the ledger
	// composes the same RDP as an accountant fed SkellamRDP directly.
	a := NewAccountant(nil)
	for r := 0; r < 10; r++ {
		a.AddRDPFunc(func(alpha float64) float64 { return SkellamRDP(alpha, 1000, 100, 1e7) })
	}
	if full := a.Epsilon(1e-3); sampled.Epsilon() != full {
		t.Errorf("q=1 sampled ledger %v != unsampled accounting %v", sampled.Epsilon(), full)
	}
}

func TestSampledLedgerTrajectory(t *testing.T) {
	l, err := NewSampledLedger(MechanismGaussian, 1e-5, 1, 0, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for r := 0; r < 15; r++ {
		eps := l.RecordRound(1e-4)
		if eps < prev {
			t.Fatal("trajectory must be monotone")
		}
		prev = eps
	}
}

func TestSampledLedgerZeroNoise(t *testing.T) {
	l, _ := NewSampledLedger(MechanismGaussian, 1e-5, 1, 0, 0.5)
	if eps := l.RecordRound(0); !math.IsInf(eps, 1) {
		t.Errorf("zero noise should cost ∞, got %v", eps)
	}
}

func TestNewSampledLedgerValidation(t *testing.T) {
	if _, err := NewSampledLedger(MechanismGaussian, 1e-5, 1, 0, 0); err == nil {
		t.Error("q=0 should error")
	}
}

// TestNewSampledLedgerRefusesUnknownMechanism: a ledger is only built for
// a mechanism it has an RDP bound for. Built for any other, RecordRound
// would compose nothing and report ε = 0 for rounds that spent budget.
func TestNewSampledLedgerRefusesUnknownMechanism(t *testing.T) {
	if _, err := NewSampledLedger(Mechanism(7), 1e-5, 1, 0, 0.5); err == nil {
		t.Fatal("NewSampledLedger accepted an unknown mechanism")
	}
}
