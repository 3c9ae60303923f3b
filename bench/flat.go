package main

import (
	"crypto/rand"
	"fmt"

	"repro/internal/core"
	"repro/internal/xnoise"
)

// flatShape fixes an in-process core.RunRound workload.
type flatShape struct {
	protocol  core.Protocol
	n, dim    int
	chunks    int
	threshold int
	tolerance int
	dropEvery int // every dropEvery-th client vanishes before its masked upload
}

const targetMu = 100 // central noise target, grid units

// flatWorkload drives core.RunRound as a first-time cohort pays it: a
// fresh session pool every round, so every round agrees every key.
type flatWorkload struct {
	seed    uint64
	shape   flatShape
	cfg     core.RoundConfig
	updates map[uint64][]float64
	drops   []uint64

	// oracle, fixed per pass because the inputs are
	survivors []uint64
	wantSum   []float64
	wantVar   float64
	planVar   float64

	last     *core.RoundResult
	residual []float64 // check's scratch, reused so the oracle allocates nothing per round
}

func flatColdShape(small bool) flatShape {
	s := flatShape{protocol: core.ProtocolAuto, n: 64, dim: 16384, chunks: 8,
		threshold: 48, tolerance: 16, dropEvery: 8}
	if small {
		s.dim = 1024
	}
	return s
}

func lsaDropoutShape(small bool) flatShape {
	s := flatShape{protocol: core.ProtocolLightSecAgg, n: 32, dim: 16384, chunks: 4,
		threshold: 24, tolerance: 8, dropEvery: 8}
	if small {
		s.dim = 1024
	}
	return s
}

func openFlatCold(seed uint64, small bool, _ *tracer) (workload, error) {
	return openFlat(seed, flatColdShape(small))
}

func openLSADropout(seed uint64, small bool, _ *tracer) (workload, error) {
	return openFlat(seed, lsaDropoutShape(small))
}

func openFlat(seed uint64, s flatShape) (*flatWorkload, error) {
	ids := clientIDs(s.n)
	codec, err := benchCodec(seed, s.dim, s.n, targetMu)
	if err != nil {
		return nil, err
	}
	if codec.PaddedDim() != s.dim {
		return nil, fmt.Errorf("flat workload: dim %d is not a power of two", s.dim)
	}
	w := &flatWorkload{
		seed:  seed,
		shape: s,
		cfg: core.RoundConfig{
			Protocol: s.protocol, Codec: codec, Threshold: s.threshold, Chunks: s.chunks,
			Tolerance: s.tolerance, TargetMu: targetMu,
		},
		updates: modelUpdates(seed, ids, s.dim, 0.9*codec.Clip),
	}
	w.drops, w.survivors = dropSplit(ids, s.dropEvery)
	w.wantSum = make([]float64, s.dim)
	for _, id := range w.survivors {
		for j, v := range w.updates[id] {
			w.wantSum[j] += v
		}
	}
	plan := xnoise.Plan{NumClients: s.n, DropoutTolerance: s.tolerance,
		Threshold: s.threshold, TargetVariance: targetMu}
	w.planVar = plan.AchievedVariance(len(w.drops))
	w.wantVar = w.planVar + roundingVariance(codec, w.updates, w.survivors)
	return w, nil
}

func (w *flatWorkload) prepare(int) error { return nil }

func (w *flatWorkload) run(i int) error {
	cfg := w.cfg
	cfg.Round = uint64(i)
	cfg.Seed = roundSeed(w.seed, i)
	cfg.Sessions = core.NewSessionPool(1)
	res, err := core.RunRound(cfg, w.updates, w.drops, rand.Reader)
	w.last = res
	return err
}

func (w *flatWorkload) check() (roundCheck, error) {
	res := w.last
	if res == nil {
		return roundCheck{}, fmt.Errorf("oracle: no result")
	}
	if !sameIDs(res.Survivors, w.survivors) || !sameIDs(res.Dropped, w.drops) {
		return roundCheck{}, fmt.Errorf("oracle: partition %v / %v does not match the schedule",
			res.Survivors, res.Dropped)
	}
	if len(res.Sum) != len(w.wantSum) {
		return roundCheck{}, fmt.Errorf("oracle: aggregate has %d coordinates, want %d",
			len(res.Sum), len(w.wantSum))
	}
	if w.residual == nil {
		w.residual = make([]float64, len(res.Sum))
	}
	for j, v := range res.Sum {
		w.residual[j] = (v - w.wantSum[j]) * w.cfg.Codec.Scale
	}
	mean, variance := residualStats(w.residual)
	rc := roundCheck{noiseVarRatio: (variance - (w.wantVar - w.planVar)) / w.planVar}
	return rc, checkNoise(mean, variance, w.wantVar, len(w.residual))
}

func (w *flatWorkload) info() workloadInfo {
	return workloadInfo{clients: w.shape.n, survivors: len(w.survivors), dim: w.shape.dim}
}

func (w *flatWorkload) close() error { return nil }
