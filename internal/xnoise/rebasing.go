package xnoise

import (
	"fmt"

	"repro/internal/field"
	"repro/internal/prg"
)

// Rebasing implements the 'rebasing' add-then-remove baseline of §3.1
// (adopted by Baek et al. [11]): each client adds its noise share n_o as a
// whole; after the dropout outcome is known, each surviving client computes
// the newly-required noise n_u and transmits the *difference vector*
// n_u − n_o to the server, which adds it to the aggregate. Only the coupled
// difference may be revealed — sending n_u and n_o separately (or their
// seeds) would let the server reconstruct the noise-free aggregate.
//
// Consequences the paper calls out, both reproduced here:
//   - communication: the correction is a full dense vector (Table 3 shows
//     the footprint growing linearly in model size, vs. XNoise's constant
//     seed transfer);
//   - robustness: the correction cannot be secret-shared ahead of time
//     because n_u depends on the dropout outcome, so a client dropping
//     during noise removal leaves the aggregate at the wrong noise level.
type Rebasing struct {
	plan    Plan
	sampler Sampler
	// originalSeed drives n_o. n_u must be fresh randomness (correlated
	// noise would break the variance algebra), driven by updateSeed.
	originalSeed field.Element
	updateSeed   field.Element
}

// NewRebasing creates the client-side state for one round.
func NewRebasing(p Plan, sampler Sampler, originalSeed, updateSeed field.Element) (*Rebasing, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if sampler == nil {
		sampler = SamplerForEpoch(0)
	}
	return &Rebasing{plan: p, sampler: sampler, originalSeed: originalSeed, updateSeed: updateSeed}, nil
}

// OriginalVariance is the per-client variance added up front: like XNoise,
// rebasing must assume the worst-case dropout, σ²*/(|U|−T)·infl.
func (r *Rebasing) OriginalVariance() float64 { return r.plan.PerClientVariance() }

// RequiredVariance is the per-client variance actually needed once
// numDropped is known: σ²*/(|U|−|D|)·infl.
func (r *Rebasing) RequiredVariance(numDropped int) (float64, error) {
	if numDropped < 0 || numDropped > r.plan.DropoutTolerance {
		return 0, fmt.Errorf("xnoise: dropout %d exceeds tolerance %d", numDropped, r.plan.DropoutTolerance)
	}
	return r.plan.TargetVariance / float64(r.plan.NumClients-numDropped) * r.plan.InflationFactor(), nil
}

// OriginalNoise returns n_o, the noise added to the update before upload.
func (r *Rebasing) OriginalNoise(dim int) []int64 {
	out := make([]int64, dim)
	r.sampler(prg.NewStreamFromElement(r.originalSeed), r.OriginalVariance(), out)
	return out
}

// Correction returns the dense difference vector n_u − n_o a surviving
// client uploads during noise removal. Its length equals dim: this is the
// linear-in-model-size cost Table 3 quantifies.
//
// Variance bookkeeping: the aggregate ends with Σ_survivors n_u, i.e.
// (|U|−|D|)·σ²*/(|U|−|D|) = σ²* — correct, but only if every survivor
// delivers its correction.
func (r *Rebasing) Correction(dim, numDropped int) ([]int64, error) {
	required, err := r.RequiredVariance(numDropped)
	if err != nil {
		return nil, err
	}
	nu := make([]int64, dim)
	r.sampler(prg.NewStreamFromElement(r.updateSeed), required, nu)
	no := r.OriginalNoise(dim)
	for i := range nu {
		nu[i] -= no[i]
	}
	return nu, nil
}
