package secaggplus

import (
	"crypto/rand"
	"testing"

	"repro/internal/ring"
	"repro/internal/secagg"
	"repro/internal/xnoise"
)

// TestSecAggPlusMidRemovalRecovery exercises the hardest XNoise path under
// a sparse graph: a client that uploaded its masked input dies before
// reporting its noise seeds (U3\U5). Only its O(log n) neighbors hold
// shares of those seeds, and the server must still reconstruct them and
// land removal exactly.
func TestSecAggPlusMidRemovalRecovery(t *testing.T) {
	const n = 12
	plan := &xnoise.Plan{NumClients: n, DropoutTolerance: 4, Threshold: 5, TargetVariance: 40}
	base := secagg.Config{
		Round: 21, ClientIDs: ids(n), Threshold: 5, Bits: 20, Dim: 48, XNoise: plan,
	}
	cfg, err := NewConfig(base, 8) // degree 8 ≥ threshold 5
	if err != nil {
		t.Fatal(err)
	}
	inputs := make(map[uint64]ring.Vector, n)
	for _, id := range cfg.ClientIDs {
		v := ring.NewVector(cfg.Bits, cfg.Dim)
		for j := range v.Data {
			v.Data[j] = id & v.Mask()
		}
		inputs[id] = v
	}
	// Client 7 uploads but dies before Unmasking → stage 5 fires; client 2
	// dies before uploading → |D| = 1 so components k ∈ {2,3,4} must be
	// removed from every survivor including 7 via reconstruction.
	drops := secagg.DropSchedule{
		2: secagg.StageMaskedInput,
		7: secagg.StageUnmasking,
	}
	rr, err := secagg.RunWithSessions(cfg, inputs, nil, drops, rand.Reader, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Survivors (input-wise) are everyone but 2; |D| = 1.
	if len(rr.Result.Survivors) != n-1 {
		t.Fatalf("survivors %v", rr.Result.Survivors)
	}
	// White-box exactness: aggregate = Σ inputs + kept components
	// (k ∈ {0, 1}) of every survivor.
	want := ring.NewVector(cfg.Bits, cfg.Dim)
	for _, id := range rr.Result.Survivors {
		want.AddInPlace(inputs[id])
	}
	for _, id := range rr.Result.Survivors {
		seeds := rr.Clients[id].NoiseSeeds()
		for k := 0; k <= 1; k++ {
			comp, err := xnoise.ComponentNoise(*plan, xnoise.SamplerForEpoch(cfg.NoiseEpoch), seeds[k], k, cfg.Dim)
			if err != nil {
				t.Fatal(err)
			}
			if err := want.AddSignedInPlace(comp); err != nil {
				t.Fatal(err)
			}
		}
	}
	got := ring.Vector{Bits: cfg.Bits, Data: rr.Result.Sum}
	if !ring.Equal(got, want) {
		t.Fatal("mid-removal reconstruction under SecAgg+ graph not exact")
	}
}

// TestSecAggPlusAbortsWhenNeighborhoodDies verifies that a round aborts
// (rather than producing a wrong aggregate) when a dead client's entire
// neighborhood cannot reach the reconstruction threshold.
func TestSecAggPlusAbortsWhenNeighborhoodDies(t *testing.T) {
	const n = 12
	base := secagg.Config{
		Round: 22, ClientIDs: ids(n), Threshold: 4, Bits: 20, Dim: 16,
	}
	cfg, err := NewConfig(base, 4) // neighborhood size 5
	if err != nil {
		t.Fatal(err)
	}
	inputs := make(map[uint64]ring.Vector, n)
	for _, id := range cfg.ClientIDs {
		inputs[id] = ring.NewVector(cfg.Bits, cfg.Dim)
	}
	// Client 6 drops before upload; its neighbors 4,5,7,8 drop at
	// Unmasking, so < t of 6's shares remain reachable.
	drops := secagg.DropSchedule{
		6: secagg.StageMaskedInput,
		4: secagg.StageUnmasking,
		5: secagg.StageUnmasking,
		7: secagg.StageUnmasking,
		8: secagg.StageUnmasking,
	}
	if _, err := secagg.RunWithSessions(cfg, inputs, nil, drops, rand.Reader, nil); err == nil {
		t.Fatal("round should abort when a dead client's mask cannot be reconstructed")
	}
}
