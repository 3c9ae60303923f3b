package core

import (
	"slices"
	"testing"
	"time"

	"repro/internal/churn"
	"repro/internal/secagg"
)

// TestShardChurnAcrossTwoShards replays a deterministic churn trace over
// a two-shard topology: each shard is a full wire deployment with its own
// sessions and handshake state (a service rig), and every round the two
// shard partials fold through RunCombiner. Drops land in whichever shard
// owns the client, taint only that shard's key generation (per-edge
// re-key next round, invisible to the sibling shard), and the folded sum
// stays the sum of the surviving ids across both shards — churn degrades
// shards locally, never the fold. Run under -race in CI (sharded step).
func TestShardChurnAcrossTwoShards(t *testing.T) {
	ids := seqIDs(8)
	rig := newShardedRig(t, ids, 2, secagg.Config{Threshold: 3, Bits: 16, Dim: 16})
	for _, sh := range rig.shards {
		sh.service()
		sh.stageDeadline = 500 * time.Millisecond
	}
	const rounds = 5
	byRound := churn.ByRound(churn.Generate(churn.TraceConfig{
		Seed: 42, Clients: ids, Rounds: rounds, DropsPerRound: 1,
	}))

	for round := uint64(1); round <= rounds; round++ {
		// A client dropped last round re-dials before this handshake.
		drops := make(secagg.DropSchedule)
		for _, e := range byRound[round] {
			if e.Kind == churn.Drop {
				drops[e.Client] = secagg.StageMaskedInput
			}
		}
		report, _ := rig.clean(round, drops)
		survivors := slices.DeleteFunc(slices.Clone(ids), func(id uint64) bool {
			_, dropped := drops[id]
			return dropped
		})
		if len(report.Survivors)+len(report.Dropped) != len(ids) {
			t.Fatalf("round %d: survivors %v and dropped %v do not cover the roster", round, report.Survivors, report.Dropped)
		}
		rig.checkSum(report, survivors)
		t.Logf("round %d: survivors=%d dropped=%v", round, len(report.Survivors), report.Dropped)
	}
}
