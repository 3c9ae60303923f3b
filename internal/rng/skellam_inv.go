package rng

import (
	"math"
	"sync"

	"repro/internal/prg"
)

// This file implements the NoiseEpoch-1 Skellam sampler: CDF inversion
// from a per-μ precomputed table, one uniform per draw on the central
// band, with a guard-banded fallback to the exact two-Poisson sampler for
// tail uniforms. The two-Poisson sampler (Skellam/SkellamVector) burns
// ~2(λ+2) uniforms per draw in the Knuth regime; inversion replaces that
// with one table lookup, which is what makes DSkellam noise generation
// run at the PRG's bulk rate. It is also what the epoch-0 splitting
// sampler (skellam_split.go) hands dense variances to. Draw sequences are
// versioned through xnoise.SamplerForEpoch / secagg.Config.NoiseEpoch —
// all parties of a round must agree.

// invGuardMass is the per-tail probability mass served by the exact
// fallback sampler instead of the table. Uniforms landing in the guard
// bands draw a fresh exact Skellam variate, so every integer remains
// reachable (the table alone would truncate the support); the
// distributional deviation from exact Skellam is bounded by ~2·invGuardMass
// total variation plus the ~1e-22 build truncation — far below statistical
// resolution.
const invGuardMass = 1e-10

// invBuildSigmas is the build half-width of the table in Skellam standard
// deviations; the truncated tail mass at 10σ is ~e^{-50} ≈ 2e-22.
const invBuildSigmas = 10

// InvMaxMu caps the variance for which an inversion table is built. The
// build costs O(μ) time and O(√μ) memory (a truncated Poisson
// self-convolution); beyond the cap the inversion samplers fall back to the
// two-Poisson bulk sampler, which is already O(1)/draw (PTRS) at such λ.
const InvMaxMu = 1 << 16

// skellamTable is a guide-accelerated CDF-inversion table for Skellam(mu).
type skellamTable struct {
	kmin  int64
	cdf   []float64 // cdf[i] = P(X ≤ kmin+i), built mass ≈ 1 - 2e-22
	uLo   float64   // inversion serves u ∈ [uLo, uHi); outside → exact
	uHi   float64
	guide []int32 // guide[j] = min{ i : cdf[i] > j/len(guide) }
	exact poissonSampler
}

// skellamTables caches tables per μ bit pattern. A deployment uses a
// handful of distinct variances (one per XNoise component level), so the
// map stays tiny; tables are immutable after construction.
var skellamTables sync.Map // math.Float64bits(mu) -> *skellamTable

func skellamTableFor(mu float64) *skellamTable {
	key := math.Float64bits(mu)
	if v, ok := skellamTables.Load(key); ok {
		return v.(*skellamTable)
	}
	t := buildSkellamTable(mu)
	if v, raced := skellamTables.LoadOrStore(key, t); raced {
		return v.(*skellamTable)
	}
	return t
}

// buildSkellamTable computes the Skellam(mu) pmf over
// k ∈ [-K, K], K ≈ invBuildSigmas·√μ, as the self-convolution of a
// truncated Poisson(μ/2) pmf: s(k) = Σ_n p(n)·p(n+|k|). The Poisson pmf is
// evaluated directly in log space (no recurrences to accumulate error), so
// every term is accurate to ulps and the prefix-sum CDF is monotone.
func buildSkellamTable(mu float64) *skellamTable {
	lambda := mu / 2
	sp := math.Sqrt(lambda)
	nLo := int(math.Max(0, math.Floor(lambda-invBuildSigmas*sp-5)))
	nHi := int(math.Ceil(lambda+invBuildSigmas*sp+5)) + 10
	p := make([]float64, nHi-nLo+1)
	logLam := math.Log(lambda)
	for i := range p {
		n := float64(nLo + i)
		lg, _ := math.Lgamma(n + 1)
		p[i] = math.Exp(-lambda + n*logLam - lg)
	}

	K := int64(math.Ceil(invBuildSigmas*math.Sqrt(mu))) + 10
	size := int(2*K + 1)
	pmf := make([]float64, size)
	for k := 0; int64(k) <= K; k++ {
		var s float64
		for i := 0; i+k < len(p); i++ {
			s += p[i] * p[i+k]
		}
		pmf[int(K)+k] = s
		pmf[int(K)-k] = s
	}

	cdf := make([]float64, size)
	var acc float64
	for i, v := range pmf {
		acc += v
		cdf[i] = acc
	}

	t := &skellamTable{
		kmin:  -K,
		cdf:   cdf,
		uLo:   invGuardMass,
		uHi:   acc - invGuardMass,
		exact: newPoissonSampler(lambda),
	}
	// Guide table: one slot per table entry rounded up to a power of two,
	// so a draw starts its linear CDF scan within O(1) entries of the
	// answer.
	g := 1
	for g < size {
		g <<= 1
	}
	guide := make([]int32, g)
	idx := int32(0)
	for j := range guide {
		thr := float64(j) / float64(g)
		for int(idx) < size-1 && cdf[idx] <= thr {
			idx++
		}
		guide[j] = idx
	}
	t.guide = guide
	return t
}

// draw produces one Skellam variate from a single uniform on the central
// band; guard-band uniforms defer to the exact sampler (two Poisson
// draws).
func (t *skellamTable) draw(next func() float64) int64 {
	u := next()
	if u < t.uLo || u >= t.uHi {
		return t.exact.draw(next) - t.exact.draw(next)
	}
	i := int(t.guide[int(u*float64(len(t.guide)))])
	for t.cdf[i] <= u {
		i++
	}
	return t.kmin + int64(i)
}

// SkellamInv returns one Skellam(mu) variate via CDF inversion (NoiseEpoch
// 1): typically one uniform per draw. The draw sequence differs from
// Skellam; see the package notes on noise epochs.
func SkellamInv(s *prg.Stream, mu float64) int64 {
	if mu <= 0 {
		return 0
	}
	if mu > InvMaxMu {
		return Skellam(s, mu)
	}
	return skellamTableFor(mu).draw(s.Float64)
}

// AddSkellamInv adds an iid Skellam(mu) draw to every acc[i] by CDF
// inversion — the NoiseEpoch-1 sampler, under SkellamVector's
// stream-consumption contract (bulk-prefetched uniforms: value sequence ==
// scalar SkellamInv draws, stream position consumed in batch quanta; give
// each fill a dedicated seed-derived stream). Above InvMaxMu it defers to
// the two-Poisson bulk sampler, whose PTRS path is already O(1)/draw.
func AddSkellamInv(s *prg.Stream, mu float64, acc []int64) {
	if !(mu > 0) {
		return
	}
	if mu > InvMaxMu {
		addSkellamExact(s, mu, acc)
		return
	}
	t := skellamTableFor(mu)
	b := newUniformBatch(s, math.MaxInt)
	next := b.float64
	for i := range acc {
		acc[i] += t.draw(next)
	}
	b.release()
}
