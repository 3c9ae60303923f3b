package experiments

// ablU makes the paper's §2.2 aside concrete: distributed DP "can also be
// implemented using secure shuffling" — at what cost? For one release of a
// sum query at the same central (ε = 6, δ), it compares the aggregate
// noise of (a) SecAgg-based distributed DP (noise lands exactly once) and
// (b) the shuffle model (every client's ε₀-LDP noise survives in the sum,
// amplification notwithstanding). The gap is the quantitative reason the
// paper — and this repository — builds on secure aggregation.

import (
	"fmt"
	"io"
	"math"

	"repro/internal/dp"
	"repro/internal/shuffle"
)

// AblURow is one population size in the comparison.
type AblURow struct {
	Clients    int
	Epsilon0   float64 // per-report LDP budget after amplification planning
	SecAggStd  float64 // aggregate noise std, SecAgg-based distributed DP
	ShuffleStd float64 // aggregate noise std, shuffle model
	StdRatio   float64 // ShuffleStd / SecAggStd
}

// AblationShuffle computes the comparison for a scalar sum query with
// per-client sensitivity 16 grid units at (ε = 6, δ = 1/n), one release.
func AblationShuffle() ([]AblURow, error) {
	const sens = 16.0
	var rows []AblURow
	for _, n := range []int{100, 1000, 10000} {
		delta := 1.0 / float64(n)
		// SecAgg path: one Skellam release at central target; the noise in
		// the aggregate is exactly the planned μ.
		mu, err := dp.PlanSkellamMuSampled(6, delta, sens, sens, 1, 1)
		if err != nil {
			return nil, err
		}
		// Shuffle path: the largest ε₀ whose amplified guarantee meets the
		// same budget, then n surviving discrete-Laplace noises.
		e0, err := shuffle.RequiredEpsilon0(6, n, delta)
		if err != nil {
			return nil, err
		}
		sumVar, err := shuffle.SumNoiseVariance(n, int64(sens), e0)
		if err != nil {
			return nil, err
		}
		secaggStd := math.Sqrt(mu)
		shuffleStd := math.Sqrt(sumVar)
		rows = append(rows, AblURow{
			Clients: n, Epsilon0: e0,
			SecAggStd: secaggStd, ShuffleStd: shuffleStd,
			StdRatio: shuffleStd / secaggStd,
		})
	}
	return rows, nil
}

func init() {
	register("ablU", "Ablation: shuffle-model vs SecAgg-based distributed DP (§2.2 aside)", func(w io.Writer, _ Scale) error {
		rows, err := AblationShuffle()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "ablU: aggregate noise for one sum release at (ε=6, δ=1/n), sensitivity 16")
		fmt.Fprintf(w, "%-8s %8s %14s %14s %8s\n", "clients", "ε₀", "secagg std", "shuffle std", "ratio")
		for _, r := range rows {
			fmt.Fprintf(w, "%-8d %8.3f %14.1f %14.1f %7.1fx\n",
				r.Clients, r.Epsilon0, r.SecAggStd, r.ShuffleStd, r.StdRatio)
		}
		fmt.Fprintln(w, "reading: shuffling amplifies privacy but its noise survives in the sum;")
		fmt.Fprintln(w, "SecAgg-based distributed DP keeps the aggregate at the central minimum.")
		return nil
	})
}
