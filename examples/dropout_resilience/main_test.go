package main

import (
	"crypto/rand"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/prg"
	"repro/internal/rng"
	"repro/internal/secagg"
	"repro/internal/skellam"
)

// TestDropoutResilienceAcrossStages extends the example's story to
// per-stage dropouts: XNoise enforcement must hold not only for the §6.1
// model (vanish before the masked upload, the hard-coded case the drivers
// used to support exclusively) but also for clients that die mid-protocol
// — before sharing (stage 2 never receives their shares) and before
// unmasking (stage 4 runs without them while their update and noise stay
// in the aggregate). The residual noise lands on the target in each mix.
func TestDropoutResilienceAcrossStages(t *testing.T) {
	const n, dim, targetMu = 6, 7000, 60.0
	seed := prg.NewSeed([]byte("dropout-stages"))
	scale, err := skellam.ChooseScale(dim, 1.0, 20, n, 0.2, 3)
	if err != nil {
		t.Fatal(err)
	}
	codec := skellam.Params{
		Dim: dim, Bits: 20, Clip: 1.0, Scale: scale, Beta: math.Exp(-0.5),
		K: 3, NumClients: n, RotationSeed: prg.NewSeed(seed[:], []byte("rot")),
	}
	updates := make(map[uint64][]float64, n)
	s := prg.NewStream(prg.NewSeed(seed[:], []byte("updates")))
	for i := 1; i <= n; i++ {
		x := make([]float64, dim)
		rng.GaussianVector(s, 0.01, x)
		updates[uint64(i)] = x
	}

	cases := []struct {
		name     string
		schedule secagg.DropSchedule
		excluded map[uint64]bool // not in the aggregate
		late     []uint64
		numEarly int
	}{
		{
			name:     "stage2-share-dropout",
			schedule: secagg.DropSchedule{2: secagg.StageShareKeys},
			excluded: map[uint64]bool{2: true},
			numEarly: 1,
		},
		{
			name:     "stage4-unmask-dropout",
			schedule: secagg.DropSchedule{5: secagg.StageUnmasking},
			late:     []uint64{5},
			numEarly: 0,
		},
		{
			name: "mixed-stage2-and-stage4",
			schedule: secagg.DropSchedule{
				2: secagg.StageShareKeys,
				5: secagg.StageUnmasking,
			},
			excluded: map[uint64]bool{2: true},
			late:     []uint64{5},
			numEarly: 1,
		},
	}
	// Every schedule runs on both protocol backends — classic SecAgg and
	// the LightSecAgg substrate (which needs Threshold >
	// n/2; a share-stage drop maps to its §6.1 model: offline sharing
	// completes, the upload never happens, the client is excluded).
	substrates := []struct {
		protocol  core.Protocol
		threshold int
	}{
		{core.ProtocolSecAgg, 3},
		{core.ProtocolLightSecAgg, 4},
	}
	for _, sub := range substrates {
		for _, tc := range cases {
			t.Run(sub.protocol.String()+"/"+tc.name, func(t *testing.T) {
				res, err := core.RunRound(core.RoundConfig{
					Round: 1, Protocol: sub.protocol, Codec: codec,
					Threshold: sub.threshold, Chunks: 2, Tolerance: 2, TargetMu: targetMu,
					Seed:         prg.NewSeed(seed[:], []byte(tc.name)),
					DropSchedule: tc.schedule,
				}, updates, nil, rand.Reader)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Dropped) != tc.numEarly {
					t.Fatalf("dropped = %v, want %d early dropouts", res.Dropped, tc.numEarly)
				}
				if len(res.LateDropped) != len(tc.late) {
					t.Fatalf("late dropped = %v, want %v", res.LateDropped, tc.late)
				}
				if len(res.Survivors) != n-tc.numEarly {
					t.Fatalf("survivors = %v", res.Survivors)
				}
				// Residual variance against the survivors' true sum must sit at
				// the enforced target — the example's headline claim, now under
				// per-stage dropout.
				want := make([]float64, dim)
				for id, u := range updates {
					if tc.excluded[id] {
						continue
					}
					for i, v := range u {
						want[i] += v
					}
				}
				var sum, sumSq float64
				for i := range want {
					g := (res.Sum[i] - want[i]) * codec.Scale
					sum += g
					sumSq += g * g
				}
				mean := sum / float64(dim)
				variance := sumSq/float64(dim) - mean*mean
				if math.Abs(variance-targetMu)/targetMu > 0.15 {
					t.Errorf("residual variance %v, want ≈%v", variance, targetMu)
				}
			})
		}
	}
}
