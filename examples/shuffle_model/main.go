// Shuffle model: the §2.2 alternative transport for distributed DP, end
// to end — each client randomizes its (discretized) update with ε₀-LDP
// discrete-Laplace noise, a trusted shuffler strips origins and permutes,
// and the server aggregates. The amplification-by-shuffling accountant
// shows what the anonymity buys; the final comparison shows what the
// model still costs against SecAgg-based distributed DP: every client's
// noise survives in the sum.
//
// Run with: go run ./examples/shuffle_model
package main

import (
	"crypto/rand"
	"fmt"
	"log"
	"math"

	"repro/internal/dp"
	"repro/internal/prg"
	"repro/internal/shuffle"
)

func main() {
	const (
		n     = 1000 // clients
		dim   = 256
		sens  = 8   // per-coordinate sensitivity after discretization
		eps   = 6.0 // central budget for one release
		delta = 1e-3
	)

	// 1. Plan the per-report LDP budget: the largest ε₀ whose shuffled
	//    central guarantee stays within (ε, δ).
	eps0, err := shuffle.RequiredEpsilon0(eps, n, delta)
	if err != nil {
		log.Fatal(err)
	}
	central, err := shuffle.AmplifiedEpsilon(eps0, n, delta)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("amplification: each report keeps ε₀ = %.3f; shuffled central ε = %.3f ≤ %.1f\n",
		eps0, central, eps)

	// 2. Clients randomize; the shuffler permutes; the server aggregates.
	s := prg.NewStream(prg.NewSeed([]byte("shuffle-example")))
	reports := make([]shuffle.Report, n)
	var wantPerCoord int64
	for c := 0; c < n; c++ {
		update := make([]int64, dim)
		for i := range update {
			update[i] = int64(c % 4) // discretized client signal
		}
		if c < 4 {
			wantPerCoord += int64(c%4) * (n / 4)
		}
		rep, err := shuffle.Randomize(update, sens, eps0, s)
		if err != nil {
			log.Fatal(err)
		}
		reports[c] = rep
	}
	sh, err := shuffle.NewShuffler(rand.Reader)
	if err != nil {
		log.Fatal(err)
	}
	sum, err := shuffle.Aggregate(sh.Shuffle(reports))
	if err != nil {
		log.Fatal(err)
	}

	var mean, noiseVar float64
	for _, v := range sum {
		d := float64(v - wantPerCoord)
		mean += d
		noiseVar += d * d
	}
	mean /= dim
	noiseVar = noiseVar/dim - mean*mean
	predicted, err := shuffle.SumNoiseVariance(n, sens, eps0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("aggregate: mean offset %.1f; noise variance %.0f (predicted %.0f)\n",
		mean, noiseVar, predicted)

	// 3. The comparison that motivates SecAgg-based distributed DP: the
	//    central noise a Skellam release needs for the same (ε, δ).
	mu, err := dp.PlanSkellamMuSampled(eps, delta, float64(sens)*float64(sens), float64(sens), 1, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("SecAgg-based distributed DP at the same budget: variance %.0f (std %.1f)\n", mu, math.Sqrt(mu))
	fmt.Printf("shuffle-model noise std is %.0f× larger — the §2.2 trade-off, measured\n",
		math.Sqrt(noiseVar/mu))
}
