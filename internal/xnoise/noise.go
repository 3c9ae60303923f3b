package xnoise

import (
	"fmt"
	"io"
	"math"

	"repro/internal/field"
	"repro/internal/prg"
	"repro/internal/rng"
)

// Sampler adds an iid noise value of the given variance to every out[i],
// deterministically from the stream. Adding rather than overwriting is what
// lets TotalNoise and RemovalNoise sum components in place, and lets a
// sampler whose noise is sparse touch only the coordinates that receive
// any. The distribution must be closed under summation w.r.t. the variance
// (paper §3 assumption); the package default is Skellam, matching the
// DSkellam instantiation.
type Sampler func(s *prg.Stream, variance float64, out []int64)

// MaxNoiseEpoch is the highest noise-sampler epoch this build understands.
// Epochs are a protocol compatibility contract, not a tuning knob: every
// epoch's draw sequence is frozen once released (golden tests in package
// rng pin both), and a new sampler gets the next number.
const MaxNoiseEpoch = 1

// SamplerForEpoch maps a NoiseEpoch to its frozen Skellam sampler, or nil
// for epochs this build does not know (callers reject those during config
// validation / handshake). Epoch 0, what a zero-valued config runs, is the
// Poisson-splitting sampler: O(variance·dim) below per-coordinate variance
// 1, CDF inversion from there up. Epoch 1 is CDF inversion at every
// variance. Same distribution, different draw sequences — parties mixing
// epochs regenerate different noise, so the epoch travels with the round
// config (secagg.Config.NoiseEpoch) and the handshake.
func SamplerForEpoch(epoch uint64) Sampler {
	switch epoch {
	case 0:
		return rng.AddSkellamSplit
	case 1:
		return rng.AddSkellamInv
	default:
		return nil
	}
}

// RoundedGaussianSampler adds Gaussian noise rounded to the nearest
// integer. Its variance is variance + 1/12 + o(1) rather than exact, so it
// is offered for experimentation (the paper's χ must be closed under
// summation; rounded Gaussians are approximately so at the variances used).
func RoundedGaussianSampler(s *prg.Stream, variance float64, out []int64) {
	if variance <= 0 {
		return
	}
	std := math.Sqrt(variance)
	for i := range out {
		out[i] += int64(math.Round(rng.Gaussian(s, 0, std)))
	}
}

// ComponentNoise regenerates noise component k of the client holding seed:
// dim iid draws of variance ComponentVariance(k). Client (addition) and
// server (removal) call this with the same seed and obtain bit-identical
// vectors — the property that makes seed-transfer removal exact.
func ComponentNoise(p Plan, sampler Sampler, seed field.Element, k, dim int) ([]int64, error) {
	r := newNoiseReader(sampler, 1)
	if err := r.add(p, seed, k); err != nil {
		return nil, err
	}
	out := make([]int64, dim)
	r.AddNext(out)
	return out, nil
}

// NoiseReader reads noise components window by window: one stream per
// component, keyed once from its seed (the samplers' dedicated-stream
// contract), each AddNext continuing every stream where the last left it.
// Two readers over the same components fed the same window lengths in the
// same order draw bit-identical noise — what lets a client add its noise
// one pipeline chunk at a time and the server remove it the same way.
type NoiseReader struct {
	sampler   Sampler
	streams   []*prg.Stream
	variances []float64
}

func newNoiseReader(sampler Sampler, components int) *NoiseReader {
	return &NoiseReader{sampler: sampler,
		streams: make([]*prg.Stream, 0, components), variances: make([]float64, 0, components)}
}

// add keys component k of the client holding seed into the reader.
func (r *NoiseReader) add(p Plan, seed field.Element, k int) error {
	v, err := p.ComponentVariance(k)
	if err != nil {
		return err
	}
	r.streams = append(r.streams, prg.NewStreamFromElement(seed))
	r.variances = append(r.variances, v)
	return nil
}

// AddNext adds the next len(acc) coordinates of every component to acc.
func (r *NoiseReader) AddNext(acc []int64) {
	for i, s := range r.streams {
		r.sampler(s, r.variances[i], acc)
	}
}

// ClientNoise holds one client's per-round noise state: the T+1 component
// seeds g_{u,k}, field elements so they can be Shamir-shared, and the
// reader AddTotalNoise draws them through.
type ClientNoise struct {
	Seeds []field.Element // index k in [0, T]

	total *NoiseReader // every component, keyed by the first AddTotalNoise
}

// NewClientNoise draws fresh seeds for all T+1 components from rand.
func NewClientNoise(p Plan, rand io.Reader) (*ClientNoise, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	seeds := make([]field.Element, p.NumComponents())
	var buf [8]byte
	for i := range seeds {
		if _, err := io.ReadFull(rand, buf[:]); err != nil {
			return nil, fmt.Errorf("xnoise: reading seed randomness: %w", err)
		}
		seeds[i] = field.RandomElement(buf)
	}
	return &ClientNoise{Seeds: seeds}, nil
}

// AddTotalNoise adds the next len(acc) coordinates of the sum of all T+1
// components — what the client adds to its encoded update before masking
// (Definition 2: Δ̃_i = Δ_i + Σ_k n_{i,k}) — to acc. The first call keys
// one stream per component and draws from its start; later calls continue
// them, so a client whose update is aggregated in chunks calls it once per
// chunk, in chunk order, and the server removes the same windows through
// NewRemovalReader, fed the same lengths. p and sampler must be the same on
// every call. A caller with many clients owns one acc and clears it
// between them.
func (cn *ClientNoise) AddTotalNoise(p Plan, sampler Sampler, acc []int64) error {
	if len(cn.Seeds) != p.NumComponents() {
		return fmt.Errorf("xnoise: have %d seeds, plan needs %d", len(cn.Seeds), p.NumComponents())
	}
	if cn.total == nil {
		r := newNoiseReader(sampler, len(cn.Seeds))
		for k, seed := range cn.Seeds {
			if err := r.add(p, seed, k); err != nil {
				return err
			}
		}
		cn.total = r
	}
	cn.total.AddNext(acc)
	return nil
}

// TotalNoise is AddTotalNoise into a fresh vector: the next dim
// coordinates of the total noise.
func (cn *ClientNoise) TotalNoise(p Plan, sampler Sampler, dim int) ([]int64, error) {
	total := make([]int64, dim)
	if err := cn.AddTotalNoise(p, sampler, total); err != nil {
		return nil, err
	}
	return total, nil
}

// RemovalNoise computes the total noise vector the server subtracts from
// the aggregate: for every surviving client's seed set, the components
// k ∈ [numDropped+1, T]. seedsByClient maps a surviving client to its
// removable seeds indexed by k (only the needed ks must be present).
func RemovalNoise(p Plan, sampler Sampler, seedsByClient map[uint64]map[int]field.Element, numDropped, dim int) ([]int64, error) {
	r, err := NewRemovalReader(p, sampler, seedsByClient, numDropped)
	if err != nil {
		return nil, err
	}
	total := make([]int64, dim)
	r.AddNext(total)
	return total, nil
}

// NewRemovalReader is RemovalNoise window by window: a reader over every
// surviving client's components k ∈ [numDropped+1, T], whose AddNext calls
// regenerate the windows the clients' AddTotalNoise calls of the same
// lengths added.
func NewRemovalReader(p Plan, sampler Sampler, seedsByClient map[uint64]map[int]field.Element, numDropped int) (*NoiseReader, error) {
	if numDropped > p.DropoutTolerance {
		return newNoiseReader(sampler, 0), nil // beyond tolerance: nothing to remove
	}
	ks := p.RemovalComponents(numDropped)
	r := newNoiseReader(sampler, len(seedsByClient)*len(ks))
	for client, seeds := range seedsByClient {
		for _, k := range ks {
			seed, ok := seeds[k]
			if !ok {
				return nil, fmt.Errorf("xnoise: client %d missing seed for component %d", client, k)
			}
			if err := r.add(p, seed, k); err != nil {
				return nil, err
			}
		}
	}
	return r, nil
}
