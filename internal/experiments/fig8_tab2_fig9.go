package experiments

import (
	"fmt"
	"io"
	"math"

	"repro/internal/dp"
	"repro/internal/fl"
	"repro/internal/prg"
	"repro/internal/trace"
)

// fig8Tasks mirrors the three tasks of Figures 8/9 and Table 2 with their
// paper deltas and accounting parameters.
var fig8Tasks = []struct {
	name    string
	delta   float64
	rounds  int
	sampled int
	total   int
	mkTask  func(prg.Seed, fl.TaskScale) fl.Task
	metric  string // "accuracy" or "perplexity"
}{
	{"FEMNIST", 1e-3, 50, 100, 1000, fl.FEMNISTLike, "accuracy"},
	{"CIFAR-10", 1e-2, 150, 16, 100, fl.CIFAR10Like, "accuracy"},
	{"Reddit", 5e-3, 50, 100, 200, fl.RedditLike, "perplexity"},
}

// Fig8Row is one point of Figure 8: cumulative ε at the end of training.
type Fig8Row struct {
	Task        string
	Scheme      string
	DropoutRate float64
	Epsilon     float64
}

// Fig8 replays the privacy accounting of Figure 8 for Orig and XNoise at
// dropout rates 0–40%. The accounting is exact (no training needed): Orig's
// achieved variance shrinks with dropout, XNoise's equals the plan
// (Theorem 1).
func Fig8() ([]Fig8Row, error) {
	var rows []Fig8Row
	for _, task := range fig8Tasks {
		q := float64(task.sampled) / float64(task.total)
		mu, err := dp.PlanSkellamMuSampled(6, task.delta, 10, 1, task.rounds, q)
		if err != nil {
			return nil, err
		}
		orig := origPlan(task.sampled, mu)
		for _, scheme := range []string{"Orig", "XNoise"} {
			for _, rate := range []float64{0, 0.1, 0.2, 0.3, 0.4} {
				achieved := mu // XNoise: exact (Theorem 1)
				if scheme == "Orig" {
					achieved = orig.AchievedVariance(int(rate * float64(task.sampled)))
				}
				eps, err := replayEpsilon(mu, achieved, task.delta, q, task.rounds)
				if err != nil {
					return nil, err
				}
				rows = append(rows, Fig8Row{
					Task: task.name, Scheme: scheme, DropoutRate: rate, Epsilon: eps,
				})
			}
		}
	}
	return rows, nil
}

// Table2Row is one cell pair of Table 2: final utility of Orig and XNoise
// at one dropout rate.
type Table2Row struct {
	Task        string
	DropoutRate float64
	Orig        float64
	XNoise      float64
	Metric      string
}

// Table2 trains both schemes at each dropout rate and reports the final
// metric (accuracy %, or perplexity for the Reddit-like task).
func Table2(sc Scale) ([]Table2Row, error) {
	var rows []Table2Row
	for _, spec := range fig8Tasks {
		seed := prg.NewSeed([]byte("table2/" + spec.name))
		task := spec.mkTask(seed, fl.TaskScale{Rounds: sc.Rounds, PerClient: sc.PerClient})
		for _, rate := range []float64{0, 0.2, 0.4} {
			var dropout trace.DropoutModel
			if rate > 0 {
				var err error
				dropout, err = trace.NewBernoulli(rate, prg.NewSeed(seed[:], []byte("drop")))
				if err != nil {
					return nil, err
				}
			}
			metricOf := func(scheme fl.Scheme) (float64, error) {
				res, err := fl.Run(task, fl.Config{
					Scheme: scheme, EpsilonBudget: 6, Dropout: dropout,
					Seed: prg.NewSeed(seed[:], []byte("run")),
				})
				if err != nil {
					return 0, err
				}
				if spec.metric == "perplexity" {
					return res.Perplexity(), nil
				}
				return 100 * res.FinalAccuracy, nil
			}
			orig, err := metricOf(fl.SchemeOrig)
			if err != nil {
				return nil, err
			}
			xn, err := metricOf(fl.SchemeXNoise)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Table2Row{
				Task: spec.name, DropoutRate: rate, Orig: orig, XNoise: xn,
				Metric: spec.metric,
			})
		}
	}
	return rows, nil
}

// Fig9Row is one evaluated point of a Figure 9 learning curve.
type Fig9Row struct {
	Task     string
	Scheme   string
	Round    int
	Accuracy float64
}

// Fig9 records round-to-accuracy curves for Orig and XNoise at 20%
// dropout on the CIFAR-10-like task (representative of the three panels;
// the other tasks run via Table2 at the same dropout).
func Fig9(sc Scale) ([]Fig9Row, error) {
	seed := prg.NewSeed([]byte("fig9"))
	task := fl.CIFAR10Like(seed, fl.TaskScale{Rounds: sc.Rounds, PerClient: sc.PerClient})
	dropout, err := trace.NewBernoulli(0.2, prg.NewSeed(seed[:], []byte("drop")))
	if err != nil {
		return nil, err
	}
	var rows []Fig9Row
	for _, scheme := range []fl.Scheme{fl.SchemeOrig, fl.SchemeXNoise} {
		res, err := fl.Run(task, fl.Config{
			Scheme: scheme, EpsilonBudget: 6, Dropout: dropout,
			Seed: prg.NewSeed(seed[:], []byte("run")),
		})
		if err != nil {
			return nil, err
		}
		name := "Orig"
		if scheme == fl.SchemeXNoise {
			name = "XNoise"
		}
		for _, s := range res.Stats {
			if math.IsNaN(s.Accuracy) {
				continue
			}
			rows = append(rows, Fig9Row{Task: task.Name, Scheme: name, Round: s.Round, Accuracy: s.Accuracy})
		}
	}
	return rows, nil
}

func init() {
	register("fig8", "Privacy budget consumption of Orig vs XNoise at dropout 0–40%", func(w io.Writer, _ Scale) error {
		rows, err := Fig8()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "fig8: end-to-end privacy budget consumption (budget ε = 6)")
		fmt.Fprintf(w, "%-10s %-8s %-10s %10s\n", "task", "scheme", "dropout", "final ε")
		for _, r := range rows {
			fmt.Fprintf(w, "%-10s %-8s %-10s %10.2f\n", r.Task, r.Scheme, fmt.Sprintf("%.0f%%", 100*r.DropoutRate), r.Epsilon)
		}
		return nil
	})
	register("table2", "Final utility of Orig vs XNoise across dropout rates", func(w io.Writer, sc Scale) error {
		rows, err := Table2(sc)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "table2: final testing metric of Orig and XNoise")
		fmt.Fprintf(w, "%-10s %-9s %10s %10s  %s\n", "task", "dropout", "Orig", "XNoise", "metric")
		for _, r := range rows {
			fmt.Fprintf(w, "%-10s %-9s %10.1f %10.1f  %s\n",
				r.Task, fmt.Sprintf("%.0f%%", 100*r.DropoutRate), r.Orig, r.XNoise, r.Metric)
		}
		return nil
	})
	register("fig9", "Round-to-accuracy curves of Orig vs XNoise at 20% dropout", func(w io.Writer, sc Scale) error {
		rows, err := Fig9(sc)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "fig9: round-to-accuracy (20% dropout)")
		fmt.Fprintf(w, "%-14s %-8s %6s %10s\n", "task", "scheme", "round", "accuracy")
		for _, r := range rows {
			fmt.Fprintf(w, "%-14s %-8s %6d %9.1f%%\n", r.Task, r.Scheme, r.Round, 100*r.Accuracy)
		}
		return nil
	})
}
