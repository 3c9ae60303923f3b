// Custom mechanism: swap the noise distribution — an xnoise.Sampler drawing
// rounded Gaussians instead of Skellam — and account it with a custom RDP
// curve (dp.Accountant.AddRDPFunc), without touching the XNoise
// enforcement or the protocol.
//
// Run with: go run ./examples/custom_mechanism
package main

import (
	"crypto/rand"
	"fmt"
	"log"

	"repro/internal/dp"
	"repro/internal/field"
	"repro/internal/prg"
	"repro/internal/xnoise"
)

func main() {
	// A custom sampler: rounded Gaussian (still closed under summation to
	// first order, see the xnoise package docs).
	sampler := xnoise.Sampler(func(s *prg.Stream, variance float64, out []int64) {
		xnoise.RoundedGaussianSampler(s, variance, out)
	})

	plan := xnoise.Plan{
		NumClients:       8,
		DropoutTolerance: 3,
		Threshold:        5,
		TargetVariance:   100,
	}
	if err := plan.Validate(); err != nil {
		log.Fatal(err)
	}

	// Run add-then-remove with 2 dropouts and measure the residual.
	const dim = 20000
	numDropped := 2
	agg := make([]int64, dim)
	seeds := make(map[uint64]map[int]field.Element)
	for c := 0; c < plan.NumClients; c++ {
		cn, err := xnoise.NewClientNoise(plan, rand.Reader)
		if err != nil {
			log.Fatal(err)
		}
		if c < numDropped {
			continue // dropped before upload
		}
		total, err := cn.TotalNoise(plan, sampler, dim)
		if err != nil {
			log.Fatal(err)
		}
		for i := range agg {
			agg[i] += total[i]
		}
		byK := map[int]field.Element{}
		for _, k := range plan.RemovalComponents(numDropped) {
			byK[k] = cn.Seeds[k]
		}
		seeds[uint64(c)] = byK
	}
	removal, err := xnoise.RemovalNoise(plan, sampler, seeds, numDropped, dim)
	if err != nil {
		log.Fatal(err)
	}
	var variance float64
	for i := range agg {
		v := float64(agg[i] - removal[i])
		variance += v * v
	}
	variance /= dim
	fmt.Printf("rounded-Gaussian XNoise: residual variance %.1f (target %.1f)\n",
		variance, plan.TargetVariance)

	// Custom accounting: a bespoke RDP curve via AddRDPFunc — here the
	// Gaussian curve with a 5%% safety margin, composed over 50 rounds.
	acct := dp.NewAccountant(nil)
	for r := 0; r < 50; r++ {
		acct.AddRDPFunc(func(alpha float64) float64 {
			return 1.05 * dp.GaussianRDP(alpha, 1, 10)
		})
	}
	fmt.Printf("custom-mechanism ε(δ=1e-5) after 50 rounds: %.3f\n", acct.Epsilon(1e-5))

	// Reference: the same with the builtin Gaussian accounting.
	ref := dp.NewAccountant(nil)
	for r := 0; r < 50; r++ {
		ref.AddGaussian(1, 10)
	}
	fmt.Printf("builtin Gaussian ε(δ=1e-5):                %.3f\n", ref.Epsilon(1e-5))
}
