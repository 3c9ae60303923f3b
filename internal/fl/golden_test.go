package fl

import (
	"testing"

	"repro/internal/prg"
	"repro/internal/trace"
)

// TestSchemeAccountingGolden pins what every scheme reports on tinyTask
// under Bernoulli(0.3) dropout: each round's achieved central variance and
// cumulative ε, and the final loss. The values were recorded from the
// per-scheme noise code that the single xnoise.Plan path replaced, and are
// compared with ==: the plan must reproduce the same variances, the same
// Skellam draws and therefore the same training, bit for bit. The dropout
// counts per round are 3 3 4 1 3 4 (Early stops after four rounds).
func TestSchemeAccountingGolden(t *testing.T) {
	task := tinyTask(t, 6)
	dropout, err := trace.NewBernoulli(0.3, prg.NewSeed([]byte("golden-drop")))
	if err != nil {
		t.Fatal(err)
	}
	const (
		orig5, orig4, orig7 = 0x1.350ae6f10da5bp+32, 0x1.ee77d7e815d5fp+31, 0x1.b0a8dceb131b3p+32
		mu, xnLow           = 0x1.ee77d7e815d5fp+32, 0x1.ee77d7e815d5ep+32
	)
	for _, g := range []struct {
		scheme   Scheme
		theta    float64
		achieved []float64
		eps      []float64
		loss     float64
	}{
		{SchemeNone, 0,
			[]float64{0, 0, 0, 0, 0, 0},
			[]float64{0, 0, 0, 0, 0, 0},
			0x1.2460e8720c4e4p+00},
		{SchemeOrig, 0,
			[]float64{orig5, orig5, orig4, orig7, orig5, orig4},
			[]float64{0x1.409162e0cbb04p+01, 0x1.f86c7a7965322p+01, 0x1.5d6cfc7445c7cp+02, 0x1.8ed0ee879d6ecp+02, 0x1.d19571f82f2aap+02, 0x1.0fafd46b5fecep+03},
			0x1.a2aef1518bbddp+00},
		{SchemeEarly, 0,
			[]float64{orig5, orig5, orig4, orig7},
			[]float64{0x1.409162e0cbb04p+01, 0x1.f86c7a7965322p+01, 0x1.5d6cfc7445c7cp+02, 0x1.8ed0ee879d6ecp+02},
			0x1.6f02dbc332471p+00},
		{SchemeConservative, 0.5,
			[]float64{2 * orig5, 2 * orig5, 2 * orig4, 2 * orig7, 2 * orig5, 2 * orig4},
			[]float64{0x1.9a40727109ba4p+00, 0x1.409162e081384p+01, 0x1.b80193b632ae2p+01, 0x1.f575d777cd03p+01, 0x1.234a2e1ace85p+02, 0x1.52d3fa4d6a1e8p+02},
			0x1.0e2dea5af8b74p+01},
		{SchemeXNoise, 0,
			[]float64{xnLow, xnLow, mu, xnLow, xnLow, mu},
			[]float64{0x1.d9a559305e7d3p+00, 0x1.72967bad00352p+01, 0x1.e3ae0570f071ap+01, 0x1.24a5e37b6538cp+02, 0x1.542fafae00d23p+02, 0x1.7fffbf8187b6ep+02},
			0x1.fc403269c7d89p+00},
		{SchemeCentralDP, 0,
			[]float64{mu, mu, mu, mu, mu, mu},
			[]float64{0x1.d9a559305e7d3p+00, 0x1.72967bad00351p+01, 0x1.e3ae0570f071ap+01, 0x1.24a5e37b6538bp+02, 0x1.542fafae00d22p+02, 0x1.7fffbf8187b6ep+02},
			0x1.f9af59392383p+00},
		{SchemeLocalDP, 0,
			[]float64{8 * orig5, 8 * orig5, 8 * orig4, 8 * orig7, 8 * orig5, 8 * orig4},
			[]float64{0x1.519c5e0404a3ep-01, 0x1.0752f7f8b304cp+00, 0x1.67541824187e7p+00, 0x1.97e7dc0fd70acp+00, 0x1.d76c5eef0e916p+00, 0x1.1064df4aed918p+01},
			0x1.b61ecf1468fe9p+02},
	} {
		res, err := Run(task, Config{
			Scheme: g.scheme, ConservativeTheta: g.theta, EpsilonBudget: 6,
			Dropout: dropout, Seed: prg.NewSeed([]byte("golden")),
		})
		if err != nil {
			t.Fatalf("%v: %v", g.scheme, err)
		}
		if len(res.Stats) != len(g.achieved) {
			t.Fatalf("%v: %d rounds recorded, want %d", g.scheme, len(res.Stats), len(g.achieved))
		}
		for i, s := range res.Stats {
			if s.AchievedVariance != g.achieved[i] || s.Epsilon != g.eps[i] {
				t.Errorf("%v round %d: achieved %x ε %x, want %x ε %x",
					g.scheme, s.Round, s.AchievedVariance, s.Epsilon, g.achieved[i], g.eps[i])
			}
		}
		if res.FinalLoss != g.loss {
			t.Errorf("%v: final loss %x, want %x", g.scheme, res.FinalLoss, g.loss)
		}
	}
}
