package core

import (
	"sync"
	"testing"
	"time"

	"repro/internal/churn"
	"repro/internal/combine"
	"repro/internal/ring"
	"repro/internal/secagg"
)

// TestShardChurnAcrossTwoShards replays a deterministic churn trace over
// a two-shard topology: each shard is a full wire deployment with its own
// sessions and handshake state (a service rig), and every round the two
// shard results fold through a combine.Combiner exactly as the combiner
// role does. Drops land in whichever shard owns the client, taint only
// that shard's key generation (per-edge re-key next round, invisible to
// the sibling shard), and the folded sum stays the sum of the surviving
// ids across both shards — churn degrades shards locally, never the
// fold. Run under -race in CI (sharded step).
func TestShardChurnAcrossTwoShards(t *testing.T) {
	rosters := [][]uint64{{1, 2, 3, 4}, {5, 6, 7, 8}}
	rigs := []*wireRig{newServiceRig(t, rosters[0], 3, 16), newServiceRig(t, rosters[1], 3, 16)}
	for _, rig := range rigs {
		rig.stageDeadline = 500 * time.Millisecond
	}
	owner := func(c uint64) int {
		if c <= 4 {
			return 0
		}
		return 1
	}
	all := append(append([]uint64(nil), rosters[0]...), rosters[1]...)
	const rounds = 5
	trace := churn.Generate(churn.TraceConfig{
		Seed: 42, Clients: all, Rounds: rounds, DropsPerRound: 1,
	})
	byRound := churn.ByRound(trace)

	for round := uint64(1); round <= rounds; round++ {
		// A client dropped last round re-dials before this handshake.
		drops := []secagg.DropSchedule{{}, {}}
		for _, e := range byRound[round] {
			if e.Kind == churn.Drop {
				drops[owner(e.Client)][e.Client] = secagg.StageMaskedInput
			}
		}

		// Both shard rounds run concurrently, as they would in the wire
		// topology; the fold happens once both partials exist.
		results := make([]*secagg.Result, 2)
		var wg sync.WaitGroup
		for s := range rigs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var err error
				if _, results[s], err = rigs[s].try(round, drops[s]); err != nil {
					t.Errorf("round %d shard %d: %v", round, s, err)
				}
			}()
		}
		wg.Wait()

		comb, err := combine.New(round, []uint64{0, 1}, 0)
		if err != nil {
			t.Fatal(err)
		}
		for s, res := range results {
			if res == nil {
				t.Fatalf("round %d: shard %d produced no result", round, s)
			}
			if err := comb.Add(combine.Partial{
				Shard: uint64(s), Round: round,
				Sum:       ring.Vector{Bits: 16, Data: res.Sum},
				Survivors: res.Survivors, Dropped: res.Dropped,
			}); err != nil {
				t.Fatalf("round %d: folding shard %d: %v", round, s, err)
			}
		}
		report, err := comb.Seal()
		if err != nil {
			t.Fatal(err)
		}
		if report.Degraded {
			t.Fatalf("round %d: fold degraded with both shards contributing", round)
		}

		// The folded sum is the sum of surviving ids across both shards —
		// each client's input is its id, and the shards' masks cancelled
		// independently inside each shard.
		var want uint64
		for _, id := range report.Survivors {
			want += id
		}
		if got := len(report.Survivors) + len(report.Dropped); got != len(all) {
			t.Fatalf("round %d: accounting covers %d clients, want %d", round, got, len(all))
		}
		for i, v := range report.Sum.Data {
			if v != want {
				t.Fatalf("round %d: folded sum[%d] = %d, want %d (survivors %v)",
					round, i, v, want, report.Survivors)
			}
		}
		t.Logf("round %d: survivors=%d dropped=%v", round, len(report.Survivors), report.Dropped)
	}
}
