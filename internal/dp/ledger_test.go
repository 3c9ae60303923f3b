package dp

import (
	"math"
	"testing"

	"repro/internal/xnoise"
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

// origPlan is Orig's noise (Definition 1): an XNoise plan with no
// removable components, whose achieved variance is σ²·(u−d)/u.
func origPlan(u int, sigma2 float64) xnoise.Plan {
	return xnoise.Plan{NumClients: u, Threshold: u, TargetVariance: sigma2}
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
	xn := unsampledLedger(t, delta, d1, d2)
	av := origPlan(u, sigma2).AchievedVariance(dropped)
	for r := 0; r < rounds; r++ {
		orig.RecordRound(av)
		xn.RecordRound(sigma2) // Theorem 1: exact enforcement
	}

	epsOrig := orig.Epsilon()
	epsX := xn.Epsilon()
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
	if got := origPlan(16, 1.0).AchievedVariance(4); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("got %v, want 0.75", got)
	}
	// No dropout: exactly target.
	if got := origPlan(16, 2.5).AchievedVariance(0); got != 2.5 {
		t.Errorf("no-dropout achieved %v, want 2.5", got)
	}
}

func TestAchievedVarianceConservative(t *testing.T) {
	// Con-θ is Orig planned for σ²/(1−θ). θ=0.5, u=16: each client adds
	// σ²/8. If nobody drops the aggregate has 2σ² (overshoot); if exactly
	// 8 drop it is exactly σ².
	con := origPlan(16, 1.0/(1-0.5))
	if got := con.AchievedVariance(0); math.Abs(got-2.0) > 1e-12 {
		t.Errorf("no dropout: %v, want 2.0", got)
	}
	if got := con.AchievedVariance(8); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("θ-matched dropout: %v, want 1.0", got)
	}
	// More dropout than estimated → undershoot → privacy deficit.
	if got := con.AchievedVariance(12); got >= 1.0 {
		t.Errorf("underestimated dropout should undershoot: %v", got)
	}
}

func TestHigherDropoutMoreEpsilon(t *testing.T) {
	// Figure 1d shape: ε consumed grows with dropout rate for Orig.
	const rounds, u = 150, 16
	sigma2, _ := PlanSkellamMu(6, 1e-2, 1000, 100, rounds)
	prev := 0.0
	for _, dropRate := range []float64{0, 0.1, 0.2, 0.3, 0.4} {
		l := unsampledLedger(t, 1e-2, 1000, 100)
		av := origPlan(u, sigma2).AchievedVariance(int(dropRate * u))
		for r := 0; r < rounds; r++ {
			l.RecordRound(av)
		}
		eps := l.Epsilon()
		if eps < prev {
			t.Fatalf("ε should grow with dropout: rate=%v ε=%v prev=%v", dropRate, eps, prev)
		}
		prev = eps
	}
}
