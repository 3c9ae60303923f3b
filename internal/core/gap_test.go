//go:build gap

package core

import (
	"context"
	"crypto/rand"
	"fmt"
	"strings"
	"testing"

	"repro/internal/prg"
	"repro/internal/secagg"
	"repro/internal/xnoise"
)

// TestGapSecAggPlusAdjacentDrops: a round whose config declares Tolerance
// 16 must survive any 16 drops before the masked upload, or Validate must
// refuse the config and name the tolerance it cannot hold. flat_cold's
// shape (n = 64, Threshold 48, Tolerance 16, dim 1024, one chunk) resolves
// to SecAgg+ on a sorted-id ring, whose neighbourhood survives at most
// k+1−t = 6 dropouts among its members, so 7 adjacent drops abort the
// round wherever they fall.
func TestGapSecAggPlusAdjacentDrops(t *testing.T) {
	const n, dim = 64, 1024
	cfg := RoundConfig{
		Round: 1, Protocol: ProtocolAuto, Codec: testCodec(dim, n),
		Threshold: 48, Chunks: 1, Tolerance: 16, TargetMu: 100,
		Seed: prg.NewSeed([]byte("gap-adjacent-drops")),
	}
	if err := cfg.Validate(); err != nil {
		if !strings.Contains(strings.ToLower(err.Error()), "tolerance") {
			t.Fatalf("Validate refuses the config without naming its tolerance: %v", err)
		}
		return
	}
	updates := randomUpdates(n, dim, 0.5)
	for _, first := range []uint64{1, 29, 61} { // the ring's start, its middle, and across its wrap
		var drops []uint64
		for i := range uint64(7) {
			drops = append(drops, (first-1+i)%n+1)
		}
		t.Run(fmt.Sprint(drops), func(t *testing.T) {
			if _, err := RunRound(cfg, updates, drops, rand.Reader); err != nil {
				t.Errorf("GAP: %d adjacent drops abort a round that declares Tolerance %d: %v",
					len(drops), cfg.Tolerance, err)
			}
		})
	}
}

// TestGapDegradedShardFoldSeals: shards plan XNoise at μ/S so that S of
// them compose to μ, so a fold that misses a shard releases a sum carrying
// (S−1)/S of the target noise. With no shard tolerance planned, the
// combiner must refuse that fold, as a flat round refuses more dropouts
// than its tolerance. Four shards at μ/4, quorum 3, one shard dead before
// its round (a cancelled server context): today the combiner seals at
// the third partial and reports the fold degraded, at 3/4 of μ.
func TestGapDegradedShardFoldSeals(t *testing.T) {
	const shards, mu = 4, 60.0
	rig := newShardedRig(t, seqIDs(16), shards, secagg.Config{Threshold: 3, Bits: 20, Dim: 64})
	rig.quorum = shards - 1
	for _, sh := range rig.shards {
		sh.cfg.XNoise = &xnoise.Plan{NumClients: len(sh.cfg.ClientIDs), DropoutTolerance: 1, Threshold: 3,
			TargetVariance: mu / shards}
	}
	dead, kill := context.WithCancel(context.Background())
	kill()
	rig.shards[2].serverCtx, rig.shards[2].lenient = dead, true
	report, _, err := rig.round(5, nil)
	if err == nil {
		t.Errorf("GAP: the combiner sealed a fold missing shards %v of %d, each planned at μ/%d with no shard "+
			"tolerance, so the release carries %d/%d of the target noise (degraded %v)",
			report.Missing, shards, shards, shards-len(report.Missing), shards, report.Degraded)
	}
}
