package core

import (
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/dh"
	"repro/internal/ring"
	"repro/internal/secagg"
	"repro/internal/xnoise"
)

func TestShardPlanPartition(t *testing.T) {
	ids := make([]uint64, 11)
	for i := range ids {
		ids[i] = uint64(100 - i) // unsorted on purpose
	}
	plan, err := NewShardPlan(ids, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(plan.Rosters); got != 3 {
		t.Fatalf("rosters = %d, want 3", got)
	}
	// Balanced within one, covering every id exactly once, sorted.
	seen := make(map[uint64]int)
	for s, roster := range plan.Rosters {
		if len(roster) < 3 || len(roster) > 4 {
			t.Fatalf("shard %d holds %d clients, want 3 or 4", s, len(roster))
		}
		for i, id := range roster {
			seen[id]++
			if i > 0 && roster[i-1] >= id {
				t.Fatalf("shard %d roster not strictly sorted: %v", s, roster)
			}
			if got := plan.ShardOf(id); got != s {
				t.Fatalf("ShardOf(%d) = %d, want %d", id, got, s)
			}
		}
	}
	if len(seen) != len(ids) {
		t.Fatalf("partition covers %d of %d ids", len(seen), len(ids))
	}
	if plan.ShardOf(7777) != -1 {
		t.Fatal("ShardOf accepted a foreign id")
	}
	if _, err := NewShardPlan(ids[:5], 3); err == nil {
		t.Fatal("plan accepted shards it cannot fill")
	}
	if _, err := NewShardPlan([]uint64{1, 1, 2, 3}, 2); err == nil {
		t.Fatal("plan accepted duplicate ids")
	}
}

// The TestShardedRound* scenarios run the deployed two-level path on the
// sharded rig: RunShardWire per shard, RunCombiner at the root.

// TestShardedRoundMatchesPlainSum: without noise, the fold is the plain
// sum — each shard's partial is an exact ring sum and the combiner adds.
func TestShardedRoundMatchesPlainSum(t *testing.T) {
	ids := seqIDs(12)
	rig := newShardedRig(t, ids, 3, secagg.Config{Threshold: 3, Bits: 16, Dim: 32})
	report, _ := rig.clean(4, nil)
	rig.checkSum(report, ids)
}

// TestShardedRoundDegradedShard: every client of shard 1 drops before its
// masked upload, so that shard's round falls below threshold. With quorum
// S−1 the fold completes degraded: shard 1 is named missing, its clients
// are in no accounting set, and the sum covers shards 0 and 2. With two
// shards dead the fold falls below quorum and the combiner fails.
func TestShardedRoundDegradedShard(t *testing.T) {
	rig := newShardedRig(t, seqIDs(12), 3, secagg.Config{Threshold: 3, Bits: 16, Dim: 16})
	rig.quorum = 2
	for _, sh := range rig.shards {
		sh.stageDeadline = 500 * time.Millisecond
	}
	rosters := rig.plan.Rosters
	report, shards, err := rig.round(5, dropAll(rosters[1]))
	if err != nil {
		t.Fatal(err)
	}
	if shards[1].err == nil {
		t.Fatal("the dead shard's round succeeded")
	}
	if !report.Degraded || !slices.Equal(report.Missing, []uint64{1}) || len(report.Dropped) != 0 {
		t.Fatalf("missing = %v, dropped = %v, want shard 1 missing and no client dropped", report.Missing, report.Dropped)
	}
	rig.checkSum(report, slices.Concat(rosters[0], rosters[2]))

	rig.stageDeadline = time.Second // the fold cannot reach quorum: wait no longer
	if _, _, err := rig.round(6, dropAll(slices.Concat(rosters[0], rosters[1]))); err == nil {
		t.Fatal("combiner sealed below quorum")
	}
}

// dropAll has every client of ids vanish before its masked upload.
func dropAll(ids []uint64) secagg.DropSchedule {
	drops := make(secagg.DropSchedule, len(ids))
	for _, id := range ids {
		drops[id] = secagg.StageMaskedInput
	}
	return drops
}

// TestShardedRoundXNoiseAccounting: with in-protocol XNoise at μ/S per
// shard, an in-shard dropout stays shard-local — the round is not
// degraded and the dropper's shard removes fewer components — and the
// folded noise is the central μ: S independent Skellam draws at μ/S
// compose additively (the XNoise decomposition; package combine).
func TestShardedRoundXNoiseAccounting(t *testing.T) {
	const shards, dim, mu = 2, 512, 60.0
	ids := seqIDs(12)
	plan := func(sub []uint64, target float64) *xnoise.Plan {
		return &xnoise.Plan{NumClients: len(sub), DropoutTolerance: 2, Threshold: 3, TargetVariance: target}
	}
	rig := newShardedRig(t, ids, shards, secagg.Config{Threshold: 3, Bits: 20, Dim: dim})
	for _, sh := range rig.shards {
		sh.cfg.XNoise = plan(sh.cfg.ClientIDs, mu/shards)
	}
	drop := rig.plan.Rosters[0][0]
	report, _ := rig.clean(6, secagg.DropSchedule{drop: secagg.StageMaskedInput})
	if !slices.Equal(report.Dropped, []uint64{drop}) {
		t.Fatalf("dropped = %v, want [%d]", report.Dropped, drop)
	}
	// |D| = 1 in shard 0 removes fewer components than |D| = 0 in shard 1.
	if removed := report.RemovedComponents; len(removed[0]) == 0 || len(removed[0]) >= len(removed[1]) {
		t.Fatalf("removal accounting ignores per-shard dropout: %v", removed)
	}

	// The band is what the composition promises — each shard's plan at
	// μ/S, summed over shards — stated here rather than read back from the
	// shards' configs, so a shard planned at μ fails it.
	var want float64
	for s, sub := range rig.plan.Rosters {
		dropped := 0
		if s == 0 {
			dropped = 1
		}
		want += plan(sub, mu/shards).AchievedVariance(dropped)
	}
	var idSum uint64
	for _, id := range report.Survivors {
		idSum += id
	}
	var sum, sumSq float64
	for _, v := range (ring.Vector{Bits: 20, Data: report.Sum.Data}).Centered() {
		g := float64(v) - float64(idSum)
		sum += g
		sumSq += g * g
	}
	mean := sum / dim
	variance := sumSq/dim - mean*mean
	// Five standard errors: √(σ²/d) for the mean and σ²·√(2/d) for the
	// sample variance of d near-Gaussian draws.
	if lim := 5 * math.Sqrt(want/dim); math.Abs(mean) > lim {
		t.Errorf("residual mean %.3f outside ±%.3f", mean, lim)
	}
	if lim := 5 * want * math.Sqrt(2.0/dim); math.Abs(variance-want) > lim {
		t.Errorf("residual variance %.2f, want %.2f ± %.2f", variance, want, lim)
	}
}

// TestShardedRoundPerShardSessions: sessions and handshakes are per
// shard, as mask graphs are. The second round resumes in both shards and
// generates and agrees no key at all.
func TestShardedRoundPerShardSessions(t *testing.T) {
	ids := seqIDs(8)
	rig := newShardedRig(t, ids, 2, secagg.Config{Threshold: 3, Bits: 16, Dim: 8})
	for _, sh := range rig.shards {
		sh.service()
	}
	report, _ := rig.clean(1, nil)
	rig.checkSum(report, ids)

	g0, a0 := dh.GenerateCount(), dh.AgreeCount()
	report, shards := rig.clean(2, nil)
	if g, a := dh.GenerateCount()-g0, dh.AgreeCount()-a0; g != 0 || a != 0 {
		t.Fatalf("resumed round generated %d key pairs and agreed %d keys, want 0 and 0", g, a)
	}
	for s, o := range shards {
		if !o.hs.Resume || o.hs.Partial() {
			t.Fatalf("shard %d round 2 = resume %v divergent %v, want a full resume", s, o.hs.Resume, o.hs.Divergent)
		}
	}
	rig.checkSum(report, ids)
}

// TestShardedRoundLateDropSchedule: a client that vanishes before
// unmasking has uploaded, so its shard aggregates it — a survivor, not a
// dropout, its input in the sum.
func TestShardedRoundLateDropSchedule(t *testing.T) {
	ids := seqIDs(8)
	rig := newShardedRig(t, ids, 2, secagg.Config{Threshold: 3, Bits: 16, Dim: 8})
	late := rig.plan.Rosters[1][0]
	report, _ := rig.clean(7, secagg.DropSchedule{late: secagg.StageUnmasking})
	if len(report.Dropped) != 0 {
		t.Fatalf("dropped = %v, want none", report.Dropped)
	}
	rig.checkSum(report, ids)
}
