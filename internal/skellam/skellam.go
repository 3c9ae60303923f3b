// Package skellam implements the DSkellam client-side encoding and
// server-side decoding used by Dordis's distributed-DP prototype (paper §5:
// "employs the distributed DP protocol with DSkellam [6]").
//
// The pipeline follows Agarwal, Kairouz & Liu (NeurIPS 2021):
//
//	clip → randomized Hadamard rotation → scale → conditional stochastic
//	rounding → (Skellam noise, added by the XNoise layer) → wrap in ℤ_{2^b}
//
// and the decoder reverses it:
//
//	center mod 2^b → unscale → inverse rotation.
//
// All encoded vectors live in ring.Vector so that SecAgg masking, XNoise
// addition/removal, and aggregation operate on the same representation.
// Parameters mirror the paper's configuration (§6.1): signal-bound
// multiplier k = 3, rounding bias β = e^-0.5, bit width b = 20.
package skellam

import (
	"fmt"
	"math"

	"repro/internal/prg"
	"repro/internal/ring"
)

// Params configures the DSkellam codec for one training task. The same
// Params value must be used by every client and the server within a round.
type Params struct {
	Dim        int     // model dimension before padding
	Bits       uint    // ring bit width b
	Clip       float64 // L2 clipping bound c (model units)
	Scale      float64 // granularity scale s: model units → integer grid
	Beta       float64 // conditional-rounding bias β (e.g. e^-0.5)
	K          float64 // signal bound multiplier k
	NumClients int     // n, clients summed per round (for capacity checks)

	// RotationSeed drives the shared randomized Hadamard rotation; all
	// parties in a round must agree on it (the server broadcasts it).
	RotationSeed prg.Seed
}

// PaddedDim returns the power-of-two dimension after Hadamard padding.
func (p Params) PaddedDim() int { return nextPow2(p.Dim) }

// Validate checks parameter sanity.
func (p Params) Validate() error {
	switch {
	case p.Dim <= 0:
		return fmt.Errorf("skellam: Dim must be positive, got %d", p.Dim)
	case p.Bits < 2 || p.Bits > 63:
		return fmt.Errorf("skellam: Bits %d out of [2,63]", p.Bits)
	case p.Clip <= 0:
		return fmt.Errorf("skellam: Clip must be positive, got %v", p.Clip)
	case p.Scale <= 0:
		return fmt.Errorf("skellam: Scale must be positive, got %v", p.Scale)
	case p.Beta <= 0 || p.Beta >= 1:
		return fmt.Errorf("skellam: Beta %v out of (0,1)", p.Beta)
	case p.K <= 0:
		return fmt.Errorf("skellam: K must be positive, got %v", p.K)
	case p.NumClients <= 0:
		return fmt.Errorf("skellam: NumClients must be positive, got %d", p.NumClients)
	}
	return nil
}

// InflatedClip returns the post-rounding L2 bound c̃ in integer-grid units.
// Conditional stochastic rounding retries until the rounded vector
// satisfies ‖z‖₂ ≤ c̃, where (following the DDGauss/DSkellam analysis)
//
//	c̃² = (s·c)² + p/4 + √(2·ln(1/β)) · (s·c + √p/2)
//
// with p the padded dimension. c̃ is the L2 sensitivity Δ₂ used for
// accounting.
func (p Params) InflatedClip() float64 {
	sc := p.Scale * p.Clip
	pd := float64(p.PaddedDim())
	c2 := sc*sc + pd/4 + math.Sqrt(2*math.Log(1/p.Beta))*(sc+math.Sqrt(pd)/2)
	return math.Sqrt(c2)
}

// Sensitivities returns the (Δ₁, Δ₂) integer-grid sensitivities for RDP
// accounting: Δ₂ = c̃ and Δ₁ ≤ min(c̃·√p, c̃²) (Cauchy–Schwarz and
// integrality, respectively).
func (p Params) Sensitivities() (delta1, delta2 float64) {
	d2 := p.InflatedClip()
	d1 := math.Min(d2*math.Sqrt(float64(p.PaddedDim())), d2*d2)
	return d1, d2
}

// ChooseScale returns the largest granularity scale s such that the sum of
// n encoded client vectors plus central noise of std centralSigma (model
// units) fits the signed ring range [−2^(b−1), 2^(b−1)) with k-sigma slack:
//
//	n·(k·s·c/√p + 1/2) + k·s·σ ≤ 2^(b−1) − 1
//
// The left side bounds each aggregate coordinate: after rotation every
// client coordinate is subgaussian with scale s·c/√p, rounding adds ±1/2,
// and the noise contributes k standard deviations of s·σ.
func ChooseScale(dim int, clip float64, bits uint, nClients int, centralSigma, k float64) (float64, error) {
	if dim <= 0 || clip <= 0 || nClients <= 0 || k <= 0 {
		return 0, fmt.Errorf("skellam: invalid ChooseScale arguments")
	}
	pd := float64(nextPow2(dim))
	capacity := float64(int64(1)<<(bits-1)) - 1 - float64(nClients)/2
	if capacity <= 0 {
		return 0, fmt.Errorf("skellam: ring of %d bits cannot hold %d clients", bits, nClients)
	}
	denom := float64(nClients)*k*clip/math.Sqrt(pd) + k*centralSigma
	if denom <= 0 {
		return 0, fmt.Errorf("skellam: degenerate scale denominator")
	}
	return capacity / denom, nil
}

// maxRoundingAttempts bounds the conditional-rounding retry loop. The
// acceptance probability is ≥ 1−β by construction, so hitting the bound
// has probability ≤ β^attempts (≈ 1e-9 for β=e^-0.5).
const maxRoundingAttempts = 40

// Encoder is the client half of the codec with everything that is the same
// for every client of a round built once: the validated Params, the
// inflated clip c̃, the ±1 rotation diagonal as sign bits, and one
// PaddedDim float scratch the transform runs in. It is not safe for
// concurrent use — the scratch is the reason — so concurrent encoders each
// build their own.
type Encoder struct {
	p     Params
	bound float64   // c̃, the conditional-rounding acceptance bound
	diag  []uint64  // the shared ±1 diagonal's sign bits, PaddedDim of them
	buf   []float64 // scratch: clip·sign → Hadamard → normalize
}

// NewEncoder validates p and builds its Encoder.
func NewEncoder(p Params) (*Encoder, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	pd := p.PaddedDim()
	return &Encoder{p: p, bound: p.InflatedClip(), diag: signDiagonal(p.RotationSeed, pd), buf: make([]float64, pd)}, nil
}

// EncodeInto transforms a raw model update (model units, length Dim) into
// the masked-aggregation input space ℤ_{2^b}^p, overwriting dst (PaddedDim
// coordinates at the codec's bit width): clip, rotate, scale, and
// conditional stochastic rounding — coordinate-wise up with probability
// equal to the fractional part, redrawn until ‖z‖₂ ≤ c̃ — written straight
// into dst as ring residues. Noise is NOT added here — the XNoise layer
// adds its decomposed components on top, so that Orig, XNoise, and the
// rebasing baseline can share one codec. rnd drives the rounding and is
// private to the client. On error dst holds garbage.
func (e *Encoder) EncodeInto(dst ring.Vector, x []float64, rnd *prg.Stream) error {
	if len(x) != e.p.Dim {
		return fmt.Errorf("skellam: input dim %d, want %d", len(x), e.p.Dim)
	}
	if dst.Bits != e.p.Bits || dst.Len() != len(e.buf) {
		return fmt.Errorf("skellam: destination %d×%db, want %d×%db", dst.Len(), dst.Bits, len(e.buf), e.p.Bits)
	}
	var norm2 float64
	for _, v := range x {
		norm2 += v * v
	}
	if !(norm2 <= math.MaxFloat64) { // NaN or +Inf: an input is, or the squares overflowed
		for i, v := range x {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("skellam: non-finite input at %d", i)
			}
		}
	}
	f := 1.0 // ×1 is exact, so an update inside the clip passes through bit for bit
	if norm := math.Sqrt(norm2); norm > e.p.Clip {
		f = e.p.Clip / norm
	}
	rotateInto(e.buf, e.diag, x, f)

	// Exhausting the retry budget indicates misconfigured parameters.
	mask, b2 := dst.Mask(), e.bound*e.bound
	for attempt := 0; attempt < maxRoundingAttempts; attempt++ {
		var z2 float64 // ‖z‖₂² of this attempt
		for i, y := range e.buf {
			v := y * e.p.Scale
			fl := math.Floor(v)
			z := int64(fl)
			if rnd.Float64() < v-fl {
				z++
			}
			dst.Data[i] = uint64(z) & mask
			z2 += float64(z) * float64(z)
		}
		if z2 <= b2 {
			return nil
		}
	}
	return fmt.Errorf("skellam: conditional rounding failed after %d attempts (bound %v)",
		maxRoundingAttempts, e.bound)
}

// Encode is NewEncoder and EncodeInto for one vector.
func Encode(p Params, x []float64, rnd *prg.Stream) (ring.Vector, error) {
	e, err := NewEncoder(p)
	if err != nil {
		return ring.Vector{}, err
	}
	v := ring.NewVector(p.Bits, p.PaddedDim())
	if err := e.EncodeInto(v, x, rnd); err != nil {
		return ring.Vector{}, err
	}
	return v, nil
}

// Decode maps an aggregated ring vector back to model units: center the
// residues, unscale, inverse-rotate, truncate padding — all in one
// PaddedDim buffer, whose first Dim coordinates it returns. The result is
// the SUM of the client updates (plus noise); the caller averages.
func Decode(p Params, agg ring.Vector) ([]float64, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if agg.Len() != p.PaddedDim() {
		return nil, fmt.Errorf("skellam: aggregate dim %d, want padded %d", agg.Len(), p.PaddedDim())
	}
	if agg.Bits != p.Bits {
		return nil, fmt.Errorf("skellam: aggregate bits %d, want %d", agg.Bits, p.Bits)
	}
	y := make([]float64, agg.Len())
	inv := 1 / p.Scale
	for i := range y {
		y[i] = float64(agg.CenteredAt(i)) * inv
	}
	return unrotateInPlace(y, signDiagonal(p.RotationSeed, len(y)), p.Dim), nil
}
