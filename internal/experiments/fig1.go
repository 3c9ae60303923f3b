package experiments

import (
	"fmt"
	"io"

	"repro/internal/dp"
	"repro/internal/fl"
	"repro/internal/prg"
	"repro/internal/trace"
	"repro/internal/xnoise"
)

// Fig1Row is one bar of Figure 1b/1c: a distributed-DP variant with its
// end-of-training privacy cost and final accuracy.
type Fig1Row struct {
	Variant  string
	Epsilon  float64
	Accuracy float64
}

// runVariants executes the Fig. 1b/1c comparison on a task: Orig, Early,
// and conservative planning at θ ∈ {0.8, 0.5, 0.2}, under volatile-trace
// dropout, with budget ε_G = 6.
func runVariants(task fl.Task, seed prg.Seed) ([]Fig1Row, error) {
	dropout, err := trace.NewVolatile(task.Fed.NumClients(), 0.25, 0.3, prg.NewSeed(seed[:], []byte("fig1-dropout")))
	if err != nil {
		return nil, err
	}
	type variant struct {
		name   string
		scheme fl.Scheme
		theta  float64
	}
	variants := []variant{
		{"Orig", fl.SchemeOrig, 0},
		{"Early", fl.SchemeEarly, 0},
		{"Con8", fl.SchemeConservative, 0.8},
		{"Con5", fl.SchemeConservative, 0.5},
		{"Con2", fl.SchemeConservative, 0.2},
	}
	rows := make([]Fig1Row, 0, len(variants))
	for _, v := range variants {
		res, err := fl.Run(task, fl.Config{
			Scheme:            v.scheme,
			EpsilonBudget:     6,
			ConservativeTheta: v.theta,
			Dropout:           dropout,
			Seed:              prg.NewSeed(seed[:], []byte("fig1-run")),
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig1Row{Variant: v.name, Epsilon: res.Epsilon, Accuracy: res.FinalAccuracy})
	}
	return rows, nil
}

func fig1bc(name string, mkTask func(prg.Seed, fl.TaskScale) fl.Task) Runner {
	return func(w io.Writer, sc Scale) error {
		seed := prg.NewSeed([]byte("dordis/" + name))
		rounds := sc.Rounds
		if name == "fig1c" && rounds > 0 {
			rounds *= 2 // the paper trains CIFAR-100 for 2× the rounds
		}
		task := mkTask(seed, fl.TaskScale{Rounds: rounds, PerClient: sc.PerClient})
		rows, err := runVariants(task, seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s: privacy cost vs accuracy (budget ε_G = 6, volatile dropout)\n", name)
		fmt.Fprintf(w, "%-8s %12s %12s\n", "variant", "privacy ε", "accuracy %")
		for _, r := range rows {
			fmt.Fprintf(w, "%-8s %12.2f %12.1f\n", r.Variant, r.Epsilon, 100*r.Accuracy)
		}
		return nil
	}
}

// Fig1d replays the accounting of Figure 1d: final ε consumed by Orig as a
// function of the per-round dropout rate, for budgets ε ∈ {3, 6, 9}
// (CIFAR-10 settings: 150 rounds, 16 of 100 sampled, δ = 1e-2).
type Fig1dRow struct {
	Budget      float64
	DropoutRate float64
	Epsilon     float64
}

// Fig1d computes the grid (exported for tests).
func Fig1d() ([]Fig1dRow, error) {
	const (
		rounds  = 150
		sampled = 16
		total   = 100
		delta   = 1e-2
	)
	q := float64(sampled) / float64(total)
	var rows []Fig1dRow
	for _, budget := range []float64{3, 6, 9} {
		// Offline plan at zero assumed dropout (Orig), in normalized grid
		// units with unit sensitivity: only ratios matter for accounting.
		mu, err := dp.PlanSkellamMuSampled(budget, delta, 10, 1, rounds, q)
		if err != nil {
			return nil, err
		}
		orig := origPlan(sampled, mu)
		for _, rate := range []float64{0, 0.1, 0.2, 0.3, 0.4} {
			eps, err := replayEpsilon(orig.AchievedVariance(int(rate*sampled)), delta, q, rounds)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Fig1dRow{Budget: budget, DropoutRate: rate, Epsilon: eps})
		}
	}
	return rows, nil
}

// origPlan is Orig's noise for u sampled clients at central target mu:
// Definition 1, an XNoise plan with no removable components.
func origPlan(u int, mu float64) xnoise.Plan {
	return xnoise.Plan{NumClients: u, Threshold: u, TargetVariance: mu}
}

// replayEpsilon is the ε after rounds identical releases, each carrying
// achieved, on the sampled Skellam ledger with the normalized
// sensitivities Fig1d and Fig8 plan with (L1 10, L2 1).
func replayEpsilon(achieved, delta, q float64, rounds int) (float64, error) {
	ledger, err := dp.NewSampledLedger(dp.MechanismSkellam, delta, 1, 10, q)
	if err != nil {
		return 0, err
	}
	for r := 0; r < rounds; r++ {
		ledger.RecordRound(achieved)
	}
	return ledger.Epsilon(), nil
}

func init() {
	register("fig1b", "Privacy vs utility for Orig/Early/Con-θ on the CIFAR-10-like task", fig1bc("fig1b", fl.CIFAR10Like))
	register("fig1c", "Privacy vs utility for Orig/Early/Con-θ on the CIFAR-100-like task", fig1bc("fig1c", fl.CIFAR100Like))
	register("fig1d", "Privacy cost of Orig vs dropout rate for budgets ε ∈ {3,6,9}", func(w io.Writer, _ Scale) error {
		rows, err := Fig1d()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "fig1d: Orig privacy cost vs client dropout rate")
		fmt.Fprintf(w, "%-10s %-14s %10s\n", "budget ε", "dropout rate", "final ε")
		for _, r := range rows {
			fmt.Fprintf(w, "%-10.0f %-14s %10.2f\n", r.Budget, fmt.Sprintf("%.0f%%", 100*r.DropoutRate), r.Epsilon)
		}
		return nil
	})
}
