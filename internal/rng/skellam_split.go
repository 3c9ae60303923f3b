package rng

import (
	"math"

	"repro/internal/prg"
)

// This file implements the NoiseEpoch-0 Skellam sampler, the default noise
// epoch: a whole-vector draw by Poisson splitting. XNoise components
// k ≥ 1 have per-coordinate variance σ²*/((|U|−k+1)(|U|−k)) — a few
// hundredths at realistic cohort sizes — so a per-coordinate sampler
// spends its time writing zeros. Splitting draws the vector's total
// positive and negative mass N⁺, N⁻ ~ Poisson(λ·dim) once and throws each
// unit into a uniformly chosen coordinate; by the splitting property the
// per-coordinate counts are iid Poisson(λ), so every coordinate is exactly
// Skellam(2λ) and the cost is proportional to the noise mass 2λ·dim, not
// to dim.

// splitMaxLambda is the per-coordinate Poisson rate λ = μ/2 at and above
// which units outnumber coordinates and AddSkellamSplit hands the vector
// to inversion. It is part of the frozen epoch-0 draw sequence, never a
// function of the host.
const splitMaxLambda = 0.5

// AddSkellamSplit adds an iid Skellam(mu) draw to every acc[i] — the
// NoiseEpoch-0 sampler. Below splitMaxLambda it costs O(mu·len(acc))
// draws and touches only the coordinates that receive noise; from there
// up it is AddSkellamInv. Which of the two runs depends on mu alone, so
// every party regenerates the same vector from the same seed. It shares
// SkellamVector's dedicated-stream contract.
func AddSkellamSplit(s *prg.Stream, mu float64, acc []int64) {
	lambda := mu / 2
	if lambda >= splitMaxLambda {
		AddSkellamInv(s, mu, acc)
		return
	}
	if !(mu > 0) || len(acc) == 0 {
		return
	}
	mass := lambda * float64(len(acc)) // E[N⁺] = E[N⁻]
	ps := newPoissonSampler(mass)
	// One index draw per unit plus what the two Poisson draws burn (a
	// uniform per count in the Knuth regime, a handful under PTRS), with
	// six standard deviations of slack.
	expect := 2*mass + 6*math.Sqrt(2*mass) + 16
	if ps.knuth {
		expect += 2 * mass
	}
	b := newUniformBatch(s, int(expect))
	next := b.float64
	plus, minus := ps.draw(next), ps.draw(next)
	b.quota = int(plus+minus) - (b.n - b.pos) // now known exactly
	n := uint64(len(acc))
	for ; plus > 0; plus-- {
		acc[b.index(n)]++
	}
	for ; minus > 0; minus-- {
		acc[b.index(n)]--
	}
	b.release()
}
