// Package shuffle implements the shuffle-model alternative to
// SecAgg-based distributed DP that the paper notes in §2.2: "distributed
// DP can also be implemented using alternative approaches such as secure
// shuffling [15, 22, 28]". It provides the three pieces of that model:
//
//   - a local randomizer: each client perturbs its (clipped, discretized)
//     update with ε₀-LDP discrete Laplace noise;
//
//   - a shuffler: a trusted relay that strips origin metadata and forwards
//     the reports in a uniformly random order, so the server cannot
//     attribute any report to a client;
//
//   - an amplification accountant: the privacy amplification by shuffling
//     bound of Feldman, McMillan & Talwar (FOCS 2021, "Hiding Among the
//     Clones"): n ε₀-LDP reports, once shuffled, satisfy central (ε, δ)-DP
//     with
//
//     ε ≤ log(1 + (e^{ε₀}−1)·(4·√(2·ln(4/δ)/((e^{ε₀}+1)·n)) + 4/n))
//
//     valid for ε₀ ≤ log(n/(16·ln(2/δ))).
//
// The package exists to make the paper's implicit comparison concrete
// (see the ablU experiment): for sum queries, shuffling amplifies but
// cannot reach the secure-aggregation frontier — each client still adds
// noise that does not cancel, so the aggregate carries n· the per-client
// variance, against SecAgg's exactly-once central noise.
package shuffle

import (
	"fmt"
	"io"
	"math"

	"repro/internal/dgauss"
	"repro/internal/prg"
	"repro/internal/rng"
)

// AmplifiedEpsilon returns the central ε of n shuffled ε₀-LDP reports at
// the given δ (FMT'21 Theorem 3.1 closed form). It returns an error when
// the bound's validity condition fails.
func AmplifiedEpsilon(epsilon0 float64, n int, delta float64) (float64, error) {
	if epsilon0 <= 0 || n < 2 || delta <= 0 || delta >= 1 {
		return 0, fmt.Errorf("shuffle: invalid arguments ε₀=%v n=%d δ=%v", epsilon0, n, delta)
	}
	if limit := math.Log(float64(n) / (16 * math.Log(2/delta))); epsilon0 > limit {
		return 0, fmt.Errorf("shuffle: ε₀=%.3f exceeds amplification validity bound %.3f for n=%d", epsilon0, limit, n)
	}
	e0 := math.Exp(epsilon0)
	amp := (e0 - 1) * (4*math.Sqrt(2*math.Log(4/delta)/((e0+1)*float64(n))) + 4/float64(n))
	return math.Log1p(amp), nil
}

// RequiredEpsilon0 inverts AmplifiedEpsilon: the largest per-report ε₀
// whose shuffled central guarantee stays within (epsilon, delta) for n
// reports. Bisection over the monotone closed form.
func RequiredEpsilon0(epsilon float64, n int, delta float64) (float64, error) {
	if epsilon <= 0 || n < 2 || delta <= 0 || delta >= 1 {
		return 0, fmt.Errorf("shuffle: invalid arguments ε=%v n=%d δ=%v", epsilon, n, delta)
	}
	limit := math.Log(float64(n) / (16 * math.Log(2/delta)))
	if limit <= 0 {
		return 0, fmt.Errorf("shuffle: n=%d too small for any valid amplification at δ=%v", n, delta)
	}
	lo, hi := 0.0, limit
	if eps, err := AmplifiedEpsilon(limit, n, delta); err == nil && eps <= epsilon {
		return limit, nil // the whole valid range fits the budget
	}
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		eps, err := AmplifiedEpsilon(mid, n, delta)
		if err != nil || eps > epsilon {
			hi = mid
		} else {
			lo = mid
		}
	}
	if lo == 0 {
		return 0, fmt.Errorf("shuffle: cannot meet ε=%v with n=%d δ=%v", epsilon, n, delta)
	}
	return lo, nil
}

// Report is one client's randomized message as seen by the shuffler.
type Report struct {
	// Values is the perturbed integer vector.
	Values []int64
}

// Randomize applies the ε₀-LDP local randomizer to an integer vector with
// per-coordinate L1 sensitivity `sens` (after clipping/discretization):
// discrete Laplace noise of scale t = ⌈sens/ε₀⌉ per coordinate (dgauss's
// exact sampler), which is ε₀-DP for one changed report by the standard
// Laplace argument on ℤ.
func Randomize(update []int64, sens int64, epsilon0 float64, s *prg.Stream) (Report, error) {
	if sens <= 0 || epsilon0 <= 0 {
		return Report{}, fmt.Errorf("shuffle: invalid sens=%d ε₀=%v", sens, epsilon0)
	}
	t := int(math.Ceil(float64(sens) / epsilon0))
	out := make([]int64, len(update))
	for i, v := range update {
		out[i] = v + dgauss.DiscreteLaplace(s, t)
	}
	return Report{Values: out}, nil
}

// Shuffler forwards reports in a uniformly random order with origin
// metadata stripped — the trusted component of the shuffle model (the
// analog of SecAgg's cryptography; §2.2 notes both need *some* mechanism
// between clients and server).
type Shuffler struct {
	s *prg.Stream
}

// NewShuffler builds a shuffler from a random source.
func NewShuffler(rand io.Reader) (*Shuffler, error) {
	var seedBuf [32]byte
	if _, err := io.ReadFull(rand, seedBuf[:]); err != nil {
		return nil, fmt.Errorf("shuffle: seeding shuffler: %w", err)
	}
	return &Shuffler{s: prg.NewStream(prg.NewSeed(seedBuf[:]))}, nil
}

// Shuffle returns the reports in uniformly random order. Inputs are not
// mutated; the returned slice is fresh (origin order unrecoverable).
func (sh *Shuffler) Shuffle(reports []Report) []Report {
	out := make([]Report, len(reports))
	for i, j := range rng.Perm(sh.s, len(reports)) {
		out[j] = reports[i]
	}
	return out
}

// Aggregate sums shuffled reports coordinate-wise — the server's view.
// The result carries n· the per-client noise variance (noise does not
// cancel), which is the structural disadvantage against SecAgg-based
// distributed DP quantified in the ablU experiment.
func Aggregate(reports []Report) ([]int64, error) {
	if len(reports) == 0 {
		return nil, fmt.Errorf("shuffle: no reports")
	}
	dim := len(reports[0].Values)
	sum := make([]int64, dim)
	for i, r := range reports {
		if len(r.Values) != dim {
			return nil, fmt.Errorf("shuffle: report %d has dim %d, want %d", i, len(r.Values), dim)
		}
		for j, v := range r.Values {
			sum[j] += v
		}
	}
	return sum, nil
}

// SumNoiseVariance returns the aggregate noise variance of n shuffled
// reports randomized at ε₀ with sensitivity sens: n · Var(DLap(t)), where
// Var(DLap(t)) = 2e^{1/t}/(e^{1/t}−1)² and t = ⌈sens/ε₀⌉.
func SumNoiseVariance(n int, sens int64, epsilon0 float64) (float64, error) {
	if n < 1 || sens <= 0 || epsilon0 <= 0 {
		return 0, fmt.Errorf("shuffle: invalid arguments n=%d sens=%d ε₀=%v", n, sens, epsilon0)
	}
	t := math.Ceil(float64(sens) / epsilon0)
	e := math.Exp(1 / t)
	return float64(n) * 2 * e / ((e - 1) * (e - 1)), nil
}
