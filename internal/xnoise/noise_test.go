package xnoise

import (
	"crypto/rand"
	"math"
	"testing"

	"repro/internal/field"
	"repro/internal/shamir"
)

// defaultSampler is what a zero-valued round config runs.
var defaultSampler = SamplerForEpoch(0)

// empiricalVariance runs the full add-then-remove flow over many trials and
// returns the measured per-coordinate variance of the residual noise.
func empiricalVariance(t *testing.T, p Plan, numDropped, dim, trials int) float64 {
	t.Helper()
	var sum, sumSq float64
	n := 0
	for trial := 0; trial < trials; trial++ {
		clients := make([]*ClientNoise, p.NumClients)
		for i := range clients {
			cn, err := NewClientNoise(p, rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			clients[i] = cn
		}
		// Drop the first numDropped clients (before upload).
		agg := make([]int64, dim)
		survivorSeeds := make(map[uint64]map[int]field.Element)
		for i := numDropped; i < p.NumClients; i++ {
			total, err := clients[i].TotalNoise(p, defaultSampler, dim)
			if err != nil {
				t.Fatal(err)
			}
			for j := range agg {
				agg[j] += total[j]
			}
			seeds := make(map[int]field.Element)
			for _, k := range p.RemovalComponents(numDropped) {
				seeds[k] = clients[i].Seeds[k]
			}
			survivorSeeds[uint64(i)] = seeds
		}
		removal, err := RemovalNoise(p, defaultSampler, survivorSeeds, numDropped, dim)
		if err != nil {
			t.Fatal(err)
		}
		for j := range agg {
			v := float64(agg[j] - removal[j])
			sum += v
			sumSq += v * v
			n++
		}
	}
	mean := sum / float64(n)
	return sumSq/float64(n) - mean*mean
}

func TestEndToEndVarianceNoDropout(t *testing.T) {
	p := Plan{NumClients: 6, DropoutTolerance: 2, Threshold: 4, TargetVariance: 40}
	got := empiricalVariance(t, p, 0, 400, 30)
	if math.Abs(got-p.TargetVariance) > 0.08*p.TargetVariance {
		t.Errorf("residual variance %v, want ≈%v", got, p.TargetVariance)
	}
}

func TestEndToEndVarianceWithDropout(t *testing.T) {
	p := Plan{NumClients: 6, DropoutTolerance: 2, Threshold: 4, TargetVariance: 40}
	for d := 1; d <= 2; d++ {
		got := empiricalVariance(t, p, d, 400, 30)
		if math.Abs(got-p.TargetVariance) > 0.08*p.TargetVariance {
			t.Errorf("|D|=%d: residual variance %v, want ≈%v", d, got, p.TargetVariance)
		}
	}
}

func TestServerRegeneratesIdenticalComponents(t *testing.T) {
	p := Plan{NumClients: 5, DropoutTolerance: 2, Threshold: 3, TargetVariance: 10}
	cn, err := NewClientNoise(p, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k <= p.DropoutTolerance; k++ {
		a, err := ComponentNoise(p, defaultSampler, cn.Seeds[k], k, 100)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ComponentNoise(p, defaultSampler, cn.Seeds[k], k, 100)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("component %d not reproducible at %d", k, i)
			}
		}
	}
}

func TestTotalNoiseIsSumOfComponents(t *testing.T) {
	p := Plan{NumClients: 5, DropoutTolerance: 2, Threshold: 3, TargetVariance: 10}
	cn, err := NewClientNoise(p, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	const dim = 64
	total, err := cn.TotalNoise(p, defaultSampler, dim)
	if err != nil {
		t.Fatal(err)
	}
	sum := make([]int64, dim)
	for k := 0; k <= p.DropoutTolerance; k++ {
		comp, err := ComponentNoise(p, defaultSampler, cn.Seeds[k], k, dim)
		if err != nil {
			t.Fatal(err)
		}
		for i := range sum {
			sum[i] += comp[i]
		}
	}
	for i := range sum {
		if sum[i] != total[i] {
			t.Fatalf("total != Σ components at %d", i)
		}
	}
}

// TestAddTotalNoiseMatchesTotalNoise: the caller-buffer form adds, on top
// of whatever the buffer holds, exactly the vector TotalNoise returns (each
// the first call on a ClientNoise over the same seeds) —
// under both frozen samplers, so a round that clears one buffer between
// clients adds the noise a buffer per client did — and refuses a seed set
// that does not fit the plan before touching the buffer.
func TestAddTotalNoiseMatchesTotalNoise(t *testing.T) {
	p := Plan{NumClients: 64, DropoutTolerance: 16, Threshold: 48, TargetVariance: 100}
	cn, err := NewClientNoise(p, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	const dim = 2048
	for epoch := uint64(0); epoch <= MaxNoiseEpoch; epoch++ {
		sampler := SamplerForEpoch(epoch)
		want, err := (&ClientNoise{Seeds: cn.Seeds}).TotalNoise(p, sampler, dim)
		if err != nil {
			t.Fatal(err)
		}
		acc := make([]int64, dim)
		for i := range acc {
			acc[i] = int64(i) - 1000
		}
		if err := (&ClientNoise{Seeds: cn.Seeds}).AddTotalNoise(p, sampler, acc); err != nil {
			t.Fatal(err)
		}
		for i := range acc {
			if acc[i] != want[i]+int64(i)-1000 {
				t.Fatalf("epoch %d: coordinate %d: added %d, TotalNoise has %d", epoch, i, acc[i]-int64(i)+1000, want[i])
			}
		}
	}
	short := &ClientNoise{Seeds: cn.Seeds[:3]}
	acc := make([]int64, dim)
	if err := short.AddTotalNoise(p, defaultSampler, acc); err == nil {
		t.Fatal("seed set shorter than the plan accepted")
	}
	for i, v := range acc {
		if v != 0 {
			t.Fatalf("refused call wrote %d at %d", v, i)
		}
	}
}

// TestAddThenRemoveExactAcrossDropouts: at a cohort shape whose removable
// components are sparse (variance ≈ 0.03, the splitting path) and whose
// component 0 is dense (inversion), what survives add-then-remove is, bit
// for bit, components 0..|D| of every survivor — whether the round reads
// its noise in one window or, as a chunked round does, in several: the
// clients' AddTotalNoise calls and the removal reader's AddNext calls see
// the same window lengths in the same order. Each round's noise is a fresh
// ClientNoise over the clients' seeds.
func TestAddThenRemoveExactAcrossDropouts(t *testing.T) {
	p := Plan{NumClients: 64, DropoutTolerance: 16, Threshold: 48, TargetVariance: 100}
	const dim = 700 // not a power of two: the index draw's rejection arm is live
	clients := make([]*ClientNoise, p.NumClients)
	for i := range clients {
		cn, err := NewClientNoise(p, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = cn
	}
	T := p.DropoutTolerance
	for epoch := uint64(0); epoch <= MaxNoiseEpoch; epoch++ {
		sampler := SamplerForEpoch(epoch)
		for _, windows := range [][]int{{dim}, {300, 250, 150}} {
			for _, numDropped := range []int{0, 1, T / 2, T, T + 1} {
				round := make([]*ClientNoise, p.NumClients)
				kept := newNoiseReader(sampler, 0) // components 0..|D| of every survivor
				seeds := make(map[uint64]map[int]field.Element)
				for i := numDropped; i < p.NumClients; i++ {
					round[i] = &ClientNoise{Seeds: clients[i].Seeds}
					byK := make(map[int]field.Element)
					for _, k := range p.RemovalComponents(numDropped) {
						byK[k] = clients[i].Seeds[k]
					}
					seeds[uint64(i)] = byK
					for k := 0; k <= min(numDropped, T); k++ {
						if err := kept.add(p, clients[i].Seeds[k], k); err != nil {
							t.Fatal(err)
						}
					}
				}
				removal, err := NewRemovalReader(p, sampler, seeds, numDropped)
				if err != nil {
					t.Fatal(err)
				}
				for w, n := range windows {
					residual, want, removed := make([]int64, n), make([]int64, n), make([]int64, n)
					for _, cn := range round[numDropped:] {
						if err := cn.AddTotalNoise(p, sampler, residual); err != nil {
							t.Fatal(err)
						}
					}
					removal.AddNext(removed)
					kept.AddNext(want)
					for j := range residual {
						if residual[j]-removed[j] != want[j] {
							t.Fatalf("epoch %d, windows %v, |D|=%d: window %d residual[%d] = %d, want %d",
								epoch, windows, numDropped, w, j, residual[j]-removed[j], want[j])
						}
					}
				}
			}
		}
	}
}

func TestDroppedSurvivorRecoveredViaShares(t *testing.T) {
	// The §3.2 robustness scenario: a survivor included in aggregation
	// drops before reporting its seeds; the server reconstructs them from
	// other clients' shares and removal still lands exactly.
	p := Plan{NumClients: 4, DropoutTolerance: 2, Threshold: 2, TargetVariance: 25}
	clients := make([]*ClientNoise, p.NumClients)
	xs := make([]field.Element, p.NumClients)
	for i := range xs {
		xs[i] = field.New(uint64(i + 1))
	}
	allShares := make([][][]shamir.Share, p.NumClients)
	for i := range clients {
		cn, err := NewClientNoise(p, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = cn
		allShares[i] = make([][]shamir.Share, p.DropoutTolerance+1) // index k; k=0 is never shared
		for k := 1; k <= p.DropoutTolerance; k++ {
			if allShares[i][k], err = shamir.Split(cn.Seeds[k], p.Threshold, xs, rand.Reader); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Nobody drops before aggregation (|D| = 0); client 3 drops before
	// reporting seeds. Server needs its components k ∈ {1,2}.
	numDropped := 0
	seedsByClient := make(map[uint64]map[int]field.Element)
	for i := 0; i < 3; i++ {
		m := map[int]field.Element{}
		for _, k := range p.RemovalComponents(numDropped) {
			m[k] = clients[i].Seeds[k]
		}
		seedsByClient[uint64(i)] = m
	}
	recovered := map[int]field.Element{}
	for _, k := range p.RemovalComponents(numDropped) {
		// Shares of client 3's seed k held by clients 0 and 1.
		got, err := shamir.Reconstruct([]shamir.Share{allShares[3][k][0], allShares[3][k][1]}, p.Threshold)
		if err != nil {
			t.Fatal(err)
		}
		if got != clients[3].Seeds[k] {
			t.Fatalf("recovered seed mismatch for k=%d", k)
		}
		recovered[k] = got
	}
	seedsByClient[3] = recovered
	dim := 50
	removal, err := RemovalNoise(p, defaultSampler, seedsByClient, numDropped, dim)
	if err != nil {
		t.Fatal(err)
	}
	// Cross-check against direct regeneration from the true seeds.
	want := make([]int64, dim)
	for i := 0; i < 4; i++ {
		for _, k := range p.RemovalComponents(numDropped) {
			comp, _ := ComponentNoise(p, defaultSampler, clients[i].Seeds[k], k, dim)
			for j := range want {
				want[j] += comp[j]
			}
		}
	}
	for j := range want {
		if removal[j] != want[j] {
			t.Fatalf("removal vector mismatch at %d", j)
		}
	}
}

func TestRemovalNoiseMissingSeed(t *testing.T) {
	p := Plan{NumClients: 4, DropoutTolerance: 2, Threshold: 2, TargetVariance: 1}
	seeds := map[uint64]map[int]field.Element{7: {1: field.New(9)}} // missing k=2
	if _, err := RemovalNoise(p, defaultSampler, seeds, 0, 10); err == nil {
		t.Error("missing component seed should error")
	}
}

func TestRemovalNoiseBeyondTolerance(t *testing.T) {
	p := Plan{NumClients: 4, DropoutTolerance: 1, Threshold: 3, TargetVariance: 1}
	out, err := RemovalNoise(p, defaultSampler, nil, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range out {
		if v != 0 {
			t.Error("beyond tolerance nothing should be removed")
		}
	}
}

func TestRoundedGaussianSampler(t *testing.T) {
	p := Plan{NumClients: 4, DropoutTolerance: 1, Threshold: 3, TargetVariance: 400}
	cn, err := NewClientNoise(p, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	out, err := cn.TotalNoise(p, RoundedGaussianSampler, 5000)
	if err != nil {
		t.Fatal(err)
	}
	var sumSq float64
	for _, v := range out {
		sumSq += float64(v) * float64(v)
	}
	variance := sumSq / float64(len(out))
	want := p.PerClientVariance()
	if math.Abs(variance-want) > 0.15*want {
		t.Errorf("rounded-gaussian per-client variance %v, want ≈%v", variance, want)
	}
	// Zero variance path: nothing is added.
	acc := []int64{3, -1, 0, 7}
	RoundedGaussianSampler(nil, 0, acc)
	if acc[0] != 3 || acc[1] != -1 || acc[2] != 0 || acc[3] != 7 {
		t.Errorf("zero variance changed the accumulator: %v", acc)
	}
}

func TestNewClientNoiseValidatesPlan(t *testing.T) {
	if _, err := NewClientNoise(Plan{}, rand.Reader); err == nil {
		t.Error("invalid plan should error")
	}
}
