package dgauss_test

import (
	"math"
	"testing"

	"repro/internal/dgauss"
	"repro/internal/field"
	"repro/internal/prg"
	"repro/internal/xnoise"
)

// TestXNoiseWithDGaussExactRemoval runs the add-then-remove scheme with
// discrete Gaussian components: the cancellation is bit-exact because the
// server regenerates each removed component from the same seed the client
// used — XNoise's correctness does not depend on distributional closure.
func TestXNoiseWithDGaussExactRemoval(t *testing.T) {
	plan := xnoise.Plan{
		NumClients:       6,
		DropoutTolerance: 2,
		Threshold:        4,
		TargetVariance:   36,
	}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	const dim = 512
	rand := prg.NewStream(prg.NewSeed([]byte("dgauss-xnoise")))

	for numDropped := 0; numDropped <= plan.DropoutTolerance; numDropped++ {
		clients := make([]*xnoise.ClientNoise, plan.NumClients)
		added := make([]int64, dim)
		survivors := plan.NumClients - numDropped
		seeds := make(map[uint64]map[int]field.Element)
		for i := 0; i < plan.NumClients; i++ {
			cn, err := xnoise.NewClientNoise(plan, rand)
			if err != nil {
				t.Fatal(err)
			}
			clients[i] = cn
			if i >= survivors {
				continue // dropped client: its noise never arrives
			}
			total, err := cn.TotalNoise(plan, dgauss.Sampler, dim)
			if err != nil {
				t.Fatal(err)
			}
			for j := range added {
				added[j] += total[j]
			}
			byK := make(map[int]field.Element)
			for _, k := range plan.RemovalComponents(numDropped) {
				byK[k] = cn.Seeds[k]
			}
			seeds[uint64(i)] = byK
		}

		removal, err := xnoise.RemovalNoise(plan, dgauss.Sampler, seeds, numDropped, dim)
		if err != nil {
			t.Fatal(err)
		}
		// Residual = added − removal must equal the sum of each survivor's
		// kept components (k ≤ numDropped), regenerated independently.
		want := make([]int64, dim)
		for i := 0; i < survivors; i++ {
			for k := 0; k <= numDropped; k++ {
				comp, err := xnoise.ComponentNoise(plan, dgauss.Sampler, clients[i].Seeds[k], k, dim)
				if err != nil {
					t.Fatal(err)
				}
				for j := range want {
					want[j] += comp[j]
				}
			}
		}
		for j := range added {
			if added[j]-removal[j] != want[j] {
				t.Fatalf("dropped=%d coord %d: residual %d, want %d",
					numDropped, j, added[j]-removal[j], want[j])
			}
		}
	}
}

// TestXNoiseWithDGaussResidualVariance: after removal, the residual noise
// variance lands at the target σ²* (within sampling error) for every
// dropout outcome within tolerance — Theorem 1 with DDGauss components.
func TestXNoiseWithDGaussResidualVariance(t *testing.T) {
	plan := xnoise.Plan{
		NumClients:       8,
		DropoutTolerance: 3,
		Threshold:        5,
		TargetVariance:   64,
	}
	const dim = 30000
	rand := prg.NewStream(prg.NewSeed([]byte("dgauss-var")))

	for numDropped := 0; numDropped <= plan.DropoutTolerance; numDropped++ {
		survivors := plan.NumClients - numDropped
		residual := make([]int64, dim)
		for i := 0; i < survivors; i++ {
			cn, err := xnoise.NewClientNoise(plan, rand)
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k <= numDropped; k++ {
				comp, err := xnoise.ComponentNoise(plan, dgauss.Sampler, cn.Seeds[k], k, dim)
				if err != nil {
					t.Fatal(err)
				}
				for j := range residual {
					residual[j] += comp[j]
				}
			}
		}
		var m, m2 float64
		for _, v := range residual {
			m += float64(v)
			m2 += float64(v) * float64(v)
		}
		m /= dim
		variance := m2/dim - m*m
		if math.Abs(variance-plan.TargetVariance)/plan.TargetVariance > 0.08 {
			t.Errorf("dropped=%d: residual variance %.2f, want ≈%.2f",
				numDropped, variance, plan.TargetVariance)
		}
	}
}

// TestDGaussVsSkellamSamplerInterchangeable: both samplers satisfy the
// xnoise.Sampler contract and produce the target variance; a plan is
// agnostic to which backs it.
func TestDGaussVsSkellamSamplerInterchangeable(t *testing.T) {
	const dim = 30000
	const variance = 25.0
	for name, sampler := range map[string]xnoise.Sampler{
		"dgauss":  dgauss.Sampler,
		"skellam": xnoise.SamplerForEpoch(0),
	} {
		out := make([]int64, dim)
		sampler(prg.NewStream(prg.NewSeed([]byte(name))), variance, out)
		var m, m2 float64
		for _, v := range out {
			m += float64(v)
			m2 += float64(v) * float64(v)
		}
		m /= dim
		got := m2/dim - m*m
		if math.Abs(got-variance)/variance > 0.08 {
			t.Errorf("%s: variance %.2f, want ≈%.2f", name, got, variance)
		}
	}
}
