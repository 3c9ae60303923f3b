package fl

import (
	"crypto/rand"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/ml"
	"repro/internal/prg"
	"repro/internal/skellam"
)

// TestTrainingThroughRealProtocol trains a tiny task for several rounds
// where every aggregation runs through the full Dordis stack —
// DSkellam encode → SecAgg with XNoise (real masking, shares, seeds) →
// pipelined chunk execution → decode — and verifies the model learns and
// the privacy enforcement holds. This is the end-to-end counterpart of
// fl.Run's in-the-clear (but bit-equivalent) aggregation.
func TestTrainingThroughRealProtocol(t *testing.T) {
	if testing.Short() {
		t.Skip("protocol-backed training skipped in -short mode")
	}
	seed := prg.NewSeed([]byte("integration"))
	fed, err := data.Generate(data.SynthConfig{
		NumClasses: 4, Dim: 10, NumClients: 6, PerClient: 40,
		TestExamples: 200, Alpha: 1.0, ClusterStd: 0.8,
		Seed: prg.NewSeed(seed[:], []byte("data")),
	})
	if err != nil {
		t.Fatal(err)
	}
	model := ml.NewMLP(10, 6, 4, prg.NewSeed(seed[:], []byte("model")))
	dim := model.NumParams()
	const (
		clip     = 2.0
		rounds   = 6
		targetMu = 30.0
		nClients = 6
	)
	scale, err := skellam.ChooseScale(dim, clip, 20, nClients, 0.2, 3)
	if err != nil {
		t.Fatal(err)
	}
	sgd := ml.SGDConfig{LearningRate: 0.1, Momentum: 0.9, Epochs: 1, BatchSize: 10}
	trainStream := prg.NewStream(prg.NewSeed(seed[:], []byte("train")))
	// One session pool across the whole run: each round's chunks share one
	// key agreement per pair, and every round keys afresh.
	pool := core.NewSessionPool(1)

	params := make([]float64, dim)
	model.Params(params)
	accBefore := ml.Accuracy(model, fed.Test.X, fed.Test.Y)

	for round := 1; round <= rounds; round++ {
		codec := skellam.Params{
			Dim: dim, Bits: 20, Clip: clip, Scale: scale,
			Beta: math.Exp(-0.5), K: 3, NumClients: nClients,
			RotationSeed: prg.NewSeed(seed[:], []byte{byte(round)}),
		}
		updates := make(map[uint64][]float64, nClients)
		for c := 0; c < nClients; c++ {
			local := model.Clone()
			shard := fed.Clients[c]
			if _, err := ml.TrainLocal(local, sgd, shard.X, shard.Y, trainStream); err != nil {
				t.Fatal(err)
			}
			after := make([]float64, dim)
			local.Params(after)
			delta := ml.Delta(params, after)
			ml.ClipL2(delta, clip)
			updates[uint64(c+1)] = delta
		}
		// Client 2 drops in even rounds.
		var drops []uint64
		if round%2 == 0 {
			drops = []uint64{2}
		}
		res, err := core.RunRound(core.RoundConfig{
			Round:     uint64(round),
			Protocol:  core.ProtocolAuto, // n = 6 < 32 resolves to classic SecAgg
			Codec:     codec,
			Threshold: 4,
			Chunks:    2,
			Tolerance: 1,
			TargetMu:  targetMu,
			Seed:      prg.NewSeed(seed[:], []byte{0xAA, byte(round)}),
			Sessions:  pool,
		}, updates, drops, rand.Reader)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if res.Protocol != core.ProtocolSecAgg {
			t.Fatalf("round %d resolved to %v", round, res.Protocol)
		}
		inv := 1 / float64(len(res.Survivors))
		for i := range params {
			params[i] += res.Sum[i] * inv
		}
		model.SetParams(params)
	}

	accAfter := ml.Accuracy(model, fed.Test.X, fed.Test.Y)
	if accAfter < accBefore+0.1 || accAfter < 0.45 {
		t.Fatalf("protocol-backed training did not learn: %.2f → %.2f", accBefore, accAfter)
	}
}
