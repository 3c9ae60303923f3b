// Package rng implements deterministic distribution samplers driven by a
// prg.Stream.
//
// Dordis needs reproducible, seed-addressable randomness in several places:
//
//   - Skellam noise for the DSkellam distributed-DP mechanism (§5): a
//     Skellam(μ/2, μ/2) variate is the difference of two Poisson(μ/2)
//     variates; it is integer-valued and closed under summation, the
//     property XNoise relies on (§3). Three vector samplers draw it: the
//     Poisson-splitting AddSkellamSplit (noise epoch 0, the protocol
//     default: cost proportional to the noise mass, not the dimension),
//     the CDF-inversion AddSkellamInv (noise epoch 1, and what splitting
//     hands dense variances to), and the exact two-Poisson SkellamVector
//     both fall back on.
//   - Gaussian noise for the continuous-Gaussian DP path and for synthetic
//     dataset generation.
//   - Dirichlet for the non-IID (LDA) data partitioner.
//
// Every sampler takes the stream explicitly so noise components can be
// regenerated bit-for-bit from their seeds by the server during XNoise
// removal.
package rng

import (
	"math"
	"math/bits"
	"sync"

	"repro/internal/prg"
)

// Gaussian returns one N(mean, stdDev²) variate using the Box–Muller
// transform. Two stream draws produce one output (the second branch is
// discarded to keep the stream-position/value mapping simple and exactly
// reproducible).
func Gaussian(s *prg.Stream, mean, stdDev float64) float64 {
	// Draw u1 in (0,1] to avoid log(0).
	u1 := 1.0 - s.Float64()
	u2 := s.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stdDev*z
}

// GaussianVector fills out with n iid N(0, stdDev²) samples.
func GaussianVector(s *prg.Stream, stdDev float64, out []float64) {
	for i := range out {
		out[i] = Gaussian(s, 0, stdDev)
	}
}

// Poisson returns one Poisson(lambda) variate. For small lambda it uses
// Knuth's product-of-uniforms method; for large lambda the PTRS
// (transformed rejection with squeeze) algorithm of Hörmann (1993),
// which is O(1) per sample.
func Poisson(s *prg.Stream, lambda float64) int64 {
	if lambda <= 0 {
		return 0
	}
	ps := newPoissonSampler(lambda)
	return ps.draw(s.Float64)
}

// uniformBatch prefetches uniform draws in bulk (FillUint64) so the
// variable-rate consumers below pay the cipher's bulk rate rather than one
// buffered 8-byte read per draw. Prefetching consumes the underlying
// stream in batch quanta: the draw VALUE sequence is identical to scalar
// Float64 calls, but the stream position after a vector fill is not —
// vector samplers therefore require a dedicated stream (which is how every
// protocol call site uses them: one seed-derived stream per noise
// component). That position is still a function of the stream and the
// fill alone, so two copies of a stream filled with the same lengths in
// the same order stay in step (xnoise.NoiseReader's windows).
//
// Batches are pooled: FillUint64 hands its argument to the cipher through
// an interface, so a batch declared in a sampler's frame would be a fresh
// 4 KiB heap object per vector fill.
type uniformBatch struct {
	s     *prg.Stream
	buf   [512]uint64
	n     int // prefetched words in buf
	pos   int // next unread word
	quota int // draws the fill still expects to make; caps the next refill
}

// minRefill is the refill size once a fill has outrun its quota (rejected
// index draws, guard-band fallbacks).
const minRefill = 8

var batchPool = sync.Pool{New: func() any { return new(uniformBatch) }}

// newUniformBatch returns an empty batch over s whose refills fetch at most
// quota words in total before dropping to minRefill — a sparse fill that
// expects 100 draws does not pay the cipher for 512. Dense fills pass
// math.MaxInt. The quota only moves the stream position after the fill,
// which the dedicated-stream contract already leaves unspecified.
func newUniformBatch(s *prg.Stream, quota int) *uniformBatch {
	b := batchPool.Get().(*uniformBatch)
	b.s, b.n, b.pos, b.quota = s, 0, 0, quota
	return b
}

func (b *uniformBatch) release() {
	b.s = nil
	batchPool.Put(b)
}

func (b *uniformBatch) uint64() uint64 {
	if b.pos == b.n {
		b.refill() // out of line so the draw itself inlines
	}
	v := b.buf[b.pos]
	b.pos++
	return v
}

func (b *uniformBatch) refill() {
	n := min(max(b.quota, minRefill), len(b.buf))
	b.s.FillUint64(b.buf[:n])
	b.n, b.pos = n, 0
	b.quota -= n
}

func (b *uniformBatch) float64() float64 {
	return float64(b.uint64()>>11) / (1 << 53)
}

// index returns an unbiased draw from [0, n), n ≥ 1: Lemire's multiply-shift
// with rejection of the n-dependent sliver of the low word that would make
// some residues one draw more likely than others.
func (b *uniformBatch) index(n uint64) uint64 {
	hi, lo := bits.Mul64(b.uint64(), n)
	if lo < n {
		for thresh := -n % n; lo < thresh; {
			hi, lo = bits.Mul64(b.uint64(), n)
		}
	}
	return hi
}

// poissonSampler holds the λ-dependent constants of both Poisson
// algorithms so vector fills with a fixed λ compute them once, not per
// element (SkellamVector previously paid two math.Exp per output).
type poissonSampler struct {
	lambda float64
	knuth  bool
	limit  float64 // Knuth: e^-λ
	// PTRS constants (Hörmann 1993).
	loglam, b, a, invalpha, vr float64
}

func newPoissonSampler(lambda float64) poissonSampler {
	ps := poissonSampler{lambda: lambda}
	if lambda < 30 {
		ps.knuth = true
		ps.limit = math.Exp(-lambda)
		return ps
	}
	slam := math.Sqrt(lambda)
	ps.loglam = math.Log(lambda)
	ps.b = 0.931 + 2.53*slam
	ps.a = -0.059 + 0.02483*ps.b
	ps.invalpha = 1.1239 + 1.1328/(ps.b-3.4)
	ps.vr = 0.9277 - 3.6224/(ps.b-2)
	return ps
}

// draw produces one variate, consuming uniforms from next. The draw
// sequence is identical to the seed implementation's
// poissonKnuth/poissonPTRS.
func (ps *poissonSampler) draw(next func() float64) int64 {
	if ps.knuth {
		var k int64
		p := 1.0
		for {
			p *= next()
			if p <= ps.limit {
				return k
			}
			k++
		}
	}
	// PTRS: transformed rejection with squeeze, the same variant used by
	// NumPy's generator.
	for {
		uu := next() - 0.5
		v := next()
		us := 0.5 - math.Abs(uu)
		kf := math.Floor((2*ps.a/us+ps.b)*uu + ps.lambda + 0.43)
		if us >= 0.07 && v <= ps.vr {
			return int64(kf)
		}
		if kf < 0 || (us < 0.013 && v > us) {
			continue
		}
		lg, _ := math.Lgamma(kf + 1)
		if math.Log(v)+math.Log(ps.invalpha)-math.Log(ps.a/(us*us)+ps.b) <= -ps.lambda+kf*ps.loglam-lg {
			return int64(kf)
		}
	}
}

// Skellam returns one Skellam variate with mean 0 and variance mu: the
// difference of two independent Poisson(mu/2) variates. Skellam noise is
// closed under summation (sum of Skellam(μ1), Skellam(μ2) is
// Skellam(μ1+μ2)), the property Theorem 1 requires of χ(σ²).
func Skellam(s *prg.Stream, mu float64) int64 {
	if mu <= 0 {
		return 0
	}
	return Poisson(s, mu/2) - Poisson(s, mu/2)
}

// SkellamVector fills out with iid Skellam(mu) samples by the exact
// two-Poisson (Knuth/PTRS) draw. The λ-dependent sampler constants are
// computed once for the whole vector and the uniforms are prefetched in
// bulk, so a fill runs at the PRG's bulk rate. This is the sampler the fl
// experiment harness uses and the one the others fall back on; it is not a
// protocol noise epoch (those are AddSkellamSplit and AddSkellamInv), but
// its draw sequence is pinned by a golden test all the same.
//
// Stream-consumption contract, shared by every vector sampler of this
// package: the underlying stream is consumed in batch quanta (leftover
// prefetched draws are discarded at the end of the fill), so the stream
// position afterwards differs from a loop of scalar calls. Callers needing
// two parties to regenerate identical noise must give each vector fill a
// dedicated seed-derived stream — the XNoise add/remove path does exactly
// that (one stream per noise component, xnoise.ComponentNoise). Call sites
// that keep drawing from a shared stream across fills (the fl experiment
// harness) get a different — equally distributed — noise sequence than a
// scalar-draw implementation would produce.
func SkellamVector(s *prg.Stream, mu float64, out []int64) {
	clear(out)
	addSkellamExact(s, mu, out)
}

// addSkellamExact adds an iid two-Poisson Skellam(mu) draw to every acc[i].
func addSkellamExact(s *prg.Stream, mu float64, acc []int64) {
	if !(mu > 0) {
		return
	}
	ps := newPoissonSampler(mu / 2)
	b := newUniformBatch(s, math.MaxInt)
	next := b.float64
	for i := range acc {
		acc[i] += ps.draw(next) - ps.draw(next)
	}
	b.release()
}

// Dirichlet draws one sample from Dirichlet(alpha, ..., alpha) of the given
// dimension, via normalized Gamma(alpha, 1) variates. Used by the LDA
// non-IID partitioner (paper §6.1, concentration 1.0).
func Dirichlet(s *prg.Stream, alpha float64, dim int) []float64 {
	out := make([]float64, dim)
	var sum float64
	for i := range out {
		g := Gamma(s, alpha)
		out[i] = g
		sum += g
	}
	if sum == 0 {
		// Degenerate draw (possible only for pathological alpha); fall back
		// to uniform.
		for i := range out {
			out[i] = 1 / float64(dim)
		}
		return out
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// Gamma draws a Gamma(shape, 1) variate using the Marsaglia–Tsang method,
// with the standard alpha<1 boost.
func Gamma(s *prg.Stream, shape float64) float64 {
	if shape <= 0 {
		return 0
	}
	if shape < 1 {
		// Boost: Gamma(a) = Gamma(a+1) * U^(1/a).
		u := 1.0 - s.Float64() // (0,1]
		return Gamma(s, shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := Gaussian(s, 0, 1)
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := 1.0 - s.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// Perm returns a deterministic pseudorandom permutation of [0, n) via
// Fisher–Yates. Used for client sampling.
func Perm(s *prg.Stream, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(s.Uint64n(uint64(i + 1)))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// SampleK draws k distinct indices uniformly from [0, n) (the server's
// per-round client sampling).
func SampleK(s *prg.Stream, n, k int) []int {
	if k > n {
		k = n
	}
	return Perm(s, n)[:k]
}

// Bernoulli returns true with probability p.
func Bernoulli(s *prg.Stream, p float64) bool {
	return s.Float64() < p
}
