package dp

import (
	"math"
	"testing"
)

// unsampledLedger is the ledger of a run in which every client
// participates in every round (q = 1, no amplification).
func unsampledLedger(t *testing.T, delta, d1, d2 float64) *SampledLedger {
	t.Helper()
	l, err := NewSampledLedger(MechanismSkellam, delta, d2, d1, 1)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestLedgerXNoiseVsOrig(t *testing.T) {
	// The paper's core privacy claim (Figs 1b/8): with dropout, Orig
	// consumes more ε than planned while XNoise lands exactly on budget.
	const (
		rounds  = 150
		budget  = 6.0
		delta   = 1e-2
		d1, d2  = 1000, 100 // integer L1 / L2 sensitivities
		u       = 16
		dropped = 5 // ~30% dropout each round
	)
	sigma2, err := PlanSkellamMu(budget, delta, d1, d2, rounds)
	if err != nil {
		t.Fatal(err)
	}

	orig := unsampledLedger(t, delta, d1, d2)
	xnoise := unsampledLedger(t, delta, d1, d2)
	for r := 0; r < rounds; r++ {
		av, err := AchievedVariance("orig", sigma2, u, dropped, 0)
		if err != nil {
			t.Fatal(err)
		}
		orig.RecordRound(sigma2, av)
		xnoise.RecordRound(sigma2, sigma2) // Theorem 1: exact enforcement
	}

	epsOrig := orig.Epsilon()
	epsX := xnoise.Epsilon()
	if epsX > budget+1e-6 {
		t.Errorf("XNoise consumed ε=%v, must be ≤ budget %v", epsX, budget)
	}
	if epsOrig <= budget {
		t.Errorf("Orig under 30%% dropout should exceed budget: ε=%v", epsOrig)
	}
	if epsOrig <= epsX {
		t.Errorf("Orig (%v) should consume more than XNoise (%v)", epsOrig, epsX)
	}
}

func TestAchievedVarianceOrig(t *testing.T) {
	// 16 clients, 4 dropped: achieved = σ²·12/16.
	got, err := AchievedVariance("orig", 1.0, 16, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.75) > 1e-12 {
		t.Errorf("got %v, want 0.75", got)
	}
	// No dropout: exactly target.
	got, _ = AchievedVariance("orig", 2.5, 16, 0, 0)
	if got != 2.5 {
		t.Errorf("no-dropout achieved %v, want 2.5", got)
	}
}

func TestAchievedVarianceConservative(t *testing.T) {
	// θ=0.5, u=16: each client adds σ²/8. If nobody drops the aggregate has
	// 2σ² (overshoot); if exactly 8 drop it is exactly σ².
	got, err := AchievedVariance("conservative", 1.0, 16, 0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-2.0) > 1e-12 {
		t.Errorf("no dropout: %v, want 2.0", got)
	}
	got, _ = AchievedVariance("conservative", 1.0, 16, 8, 0.5)
	if math.Abs(got-1.0) > 1e-12 {
		t.Errorf("θ-matched dropout: %v, want 1.0", got)
	}
	// More dropout than estimated → undershoot → privacy deficit.
	got, _ = AchievedVariance("conservative", 1.0, 16, 12, 0.5)
	if got >= 1.0 {
		t.Errorf("underestimated dropout should undershoot: %v", got)
	}
}

func TestAchievedVarianceErrors(t *testing.T) {
	if _, err := AchievedVariance("orig", 1, 0, 0, 0); err == nil {
		t.Error("u=0 should error")
	}
	if _, err := AchievedVariance("orig", 1, 4, 5, 0); err == nil {
		t.Error("d>u should error")
	}
	if _, err := AchievedVariance("conservative", 1, 4, 1, 1.0); err == nil {
		t.Error("θ=1 should error")
	}
	if _, err := AchievedVariance("bogus", 1, 4, 1, 0); err == nil {
		t.Error("unknown scheme should error")
	}
}

func TestHigherDropoutMoreEpsilon(t *testing.T) {
	// Figure 1d shape: ε consumed grows with dropout rate for Orig.
	const rounds, u = 150, 16
	sigma2, _ := PlanSkellamMu(6, 1e-2, 1000, 100, rounds)
	prev := 0.0
	for _, dropRate := range []float64{0, 0.1, 0.2, 0.3, 0.4} {
		l := unsampledLedger(t, 1e-2, 1000, 100)
		d := int(dropRate * u)
		for r := 0; r < rounds; r++ {
			av, _ := AchievedVariance("orig", sigma2, u, d, 0)
			l.RecordRound(sigma2, av)
		}
		eps := l.Epsilon()
		if eps < prev {
			t.Fatalf("ε should grow with dropout: rate=%v ε=%v prev=%v", dropRate, eps, prev)
		}
		prev = eps
	}
}
