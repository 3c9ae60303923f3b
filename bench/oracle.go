package main

import (
	"fmt"
	"math"

	"repro/internal/prg"
	"repro/internal/ring"
	"repro/internal/skellam"
)

// The oracle: every measured round is compared with a plaintext
// computation over the same inputs, and a miss counts as a failed round.
//
// Rounds without noise must match Σ inputs mod 2^Bits exactly. XNoise
// rounds cannot (the point of the round is that the residual is fresh
// noise), so the residual — decoded aggregate minus plaintext sum, in grid
// units — must look like the noise the plan promises: mean 0 and variance
// xnoise.Plan.AchievedVariance(dropped), each within sigmas standard
// errors.

// sigmas is the width of the acceptance band. Six standard errors on two
// statistics per round keeps the false-failure rate below 1e-8 per round
// while a skipped removal (variance ×(|U|−|D|)/(|U|−T), 1.17 on flat_cold)
// lies outside the band at every dimension benchmarked in full size.
const sigmas = 6

// residualStats returns mean and variance of a residual.
func residualStats(res []float64) (mean, variance float64) {
	var sum, sumSq float64
	for _, g := range res {
		sum += g
		sumSq += g * g
	}
	n := float64(len(res))
	mean = sum / n
	return mean, sumSq/n - mean*mean
}

// checkNoise accepts a residual whose mean and variance are those of dim
// independent draws with variance want. Skellam noise at these levels has
// excess kurtosis 1/want ≪ 1, so the Gaussian standard error of a sample
// variance, want·√(2/dim), applies.
func checkNoise(mean, variance, want float64, dim int) error {
	n := float64(dim)
	if lim := sigmas * math.Sqrt(want/n); math.Abs(mean) > lim {
		return fmt.Errorf("oracle: residual mean %.4f outside ±%.4f", mean, lim)
	}
	if lim := sigmas * want * math.Sqrt(2/n); math.Abs(variance-want) > lim {
		return fmt.Errorf("oracle: residual variance %.3f, want %.3f ± %.3f", variance, want, lim)
	}
	return nil
}

// roundingVariance is the variance conditional stochastic rounding adds
// to one aggregate coordinate, averaged over coordinates: a value with
// fractional part f rounds up with probability f, which has variance
// f(1−f), and the survivors' roundings are independent. It is computed
// from the inputs through the codec's own exported rotation, so the noise
// band stays as narrow as the noise itself allows instead of absorbing an
// "up to n/4" allowance wide enough to hide a skipped removal.
func roundingVariance(codec skellam.Params, updates map[uint64][]float64, survivors []uint64) float64 {
	var q float64
	for _, id := range survivors {
		for _, v := range skellam.Rotate(codec.RotationSeed, updates[id]) {
			v *= codec.Scale
			f := v - math.Floor(v)
			q += f * (1 - f)
		}
	}
	return q / float64(codec.PaddedDim())
}

// benchCodec is the DSkellam codec of the in-process workloads: the
// paper's §6.1 settings (20-bit ring, k = 3, β = e^-0.5) with the scale
// that leaves room for n clients plus central noise of variance mu grid
// units.
func benchCodec(seed uint64, dim, n int, mu float64) (skellam.Params, error) {
	const clip, bits, k = 1.0, 20, 3.0
	// ChooseScale wants the noise in model units, which depend on the
	// scale it is choosing; two passes converge (the noise term is a few
	// percent of the capacity).
	scale, err := skellam.ChooseScale(dim, clip, bits, n, 0, k)
	if err != nil {
		return skellam.Params{}, err
	}
	scale, err = skellam.ChooseScale(dim, clip, bits, n, math.Sqrt(mu)/scale, k)
	if err != nil {
		return skellam.Params{}, err
	}
	return skellam.Params{
		Dim: dim, Bits: bits, Clip: clip, Scale: scale, Beta: math.Exp(-0.5),
		K: k, NumClients: n, RotationSeed: prg.Seed(seedBytes(seed, "rotation")),
	}, nil
}

// checkRingSum is the exact oracle.
func checkRingSum(got []uint64, want ring.Vector) error {
	if len(got) != want.Len() {
		return fmt.Errorf("oracle: aggregate has %d coordinates, want %d", len(got), want.Len())
	}
	for j, w := range want.Data {
		if got[j] != w {
			return fmt.Errorf("oracle: coordinate %d is %d, want %d", j, got[j], w)
		}
	}
	return nil
}

// ringResidual returns got − want, centred, as floats.
func ringResidual(got, want ring.Vector) ([]float64, error) {
	if got.Len() != want.Len() || got.Bits != want.Bits {
		return nil, fmt.Errorf("oracle: aggregate is %d×%d bits, want %d×%d",
			got.Len(), got.Bits, want.Len(), want.Bits)
	}
	diff := got.Clone()
	if err := diff.SubInPlace(want); err != nil {
		return nil, err
	}
	centred := diff.Centered()
	out := make([]float64, len(centred))
	for i, v := range centred {
		out[i] = float64(v)
	}
	return out, nil
}
