package core

import (
	"context"
	"slices"
	"testing"
	"time"

	"repro/internal/combine"
	"repro/internal/engine"
	"repro/internal/ring"
	"repro/internal/secagg"
	"repro/internal/secaggplus"
	"repro/internal/transport"
)

// TestShardWireCleanRound: two shard aggregators, each running a full
// engine-backed round over four clients, fold through the root combiner
// over real (memory) transports. The report must be clean and the sum
// exact.
func TestShardWireCleanRound(t *testing.T) {
	ids := seqIDs(8)
	rig := newShardedRig(t, ids, 2, secagg.Config{Threshold: 3, Bits: 16, Dim: 8})
	report, _ := rig.clean(77, nil)
	rig.checkSum(report, ids)
}

// TestShardWireShardCrash: three shards, quorum two; one shard's server is
// dead before its round can start, so its partial never arrives. The
// combiner must degrade — fold the two live partials, name the dead shard
// — not abort.
func TestShardWireShardCrash(t *testing.T) {
	rig := newShardedRig(t, seqIDs(12), 3, secagg.Config{Threshold: 3, Bits: 16, Dim: 4})
	rig.quorum = 2
	dead, kill := context.WithCancel(context.Background())
	kill() // dead on arrival: the hello goes out, the round cannot
	rig.shards[2].serverCtx, rig.shards[2].lenient = dead, true
	report, shards, err := rig.round(88, nil)
	if err != nil {
		t.Fatal(err)
	}
	if shards[2].err == nil || !report.Degraded || !slices.Equal(report.Missing, []uint64{2}) {
		t.Fatalf("crash not degraded as missing=[2] (shard error %v): %+v", shards[2].err, report)
	}
	rig.checkSum(report, slices.Concat(rig.plan.Rosters[0], rig.plan.Rosters[1]))
}

// TestCombinerSealsAtQuorum pins what the quorum does: the combiner seals
// at the Quorum-th partial, so a healthy shard whose partial lands later
// is reported missing and its clients are in no accounting set.
func TestCombinerSealsAtQuorum(t *testing.T) {
	rig := newShardedRig(t, seqIDs(8), 2, secagg.Config{Threshold: 3, Bits: 16, Dim: 8})
	rig.quorum = 1
	rig.shards[1].up = heldPartial{rig.shards[1].up, rig}
	report, shards, err := rig.round(9, nil)
	if err != nil {
		t.Fatal(err)
	}
	if shards[1].err != nil {
		t.Fatalf("the late shard's round failed: %v", shards[1].err)
	}
	if !report.Degraded || !slices.Equal(report.Missing, []uint64{1}) {
		t.Fatalf("missing = %v, want [1]", report.Missing)
	}
	rig.checkSum(report, rig.plan.Rosters[0])
}

// heldPartial holds its shard's partial on the uplink until the round's
// RunCombiner has returned.
type heldPartial struct {
	transport.ClientConn
	rig *shardedRig
}

func (h heldPartial) Send(f transport.Frame) error {
	if f.Stage == engine.TagShardPartial {
		<-h.rig.sealed
	}
	return h.ClientConn.Send(f)
}

// TestCombinerStaleAndDuplicateFrames drives the combiner with hostile
// frame sequences directly: a stale partial admitted first shadows its
// sender's real partial (the engine dedups senders), degrading that
// shard; duplicate partials from a live shard are discarded without
// corrupting the fold; and none of it aborts the round.
func TestCombinerStaleAndDuplicateFrames(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	mkPartial := func(shard, round, val uint64) []byte {
		p, err := combine.EncodePartial(combine.Partial{
			Shard: shard, Round: round,
			Sum:       ring.Vector{Bits: 16, Data: []uint64{val, val}},
			Survivors: []uint64{shard*10 + 1}, Dropped: nil,
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	// Stale-shadows-real: shard 0 replays round 98's partial into round
	// 99 before its real one; with quorum 1 the round completes on shard
	// 1 alone, shard 0 reported missing.
	net := transport.NewMemoryNetwork(64)
	c0, _ := net.Connect(0)
	c1, _ := net.Connect(1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = c0.Send(transport.Frame{Stage: engine.TagShardPartial, Payload: mkPartial(0, 98, 7)})
		time.Sleep(150 * time.Millisecond) // stale frame admitted first, deterministically
		_ = c1.Send(transport.Frame{Stage: engine.TagShardPartial, Payload: mkPartial(1, 99, 5)})
		_ = c0.Send(transport.Frame{Stage: engine.TagShardPartial, Payload: mkPartial(0, 99, 9)})
	}()
	report, err := RunCombiner(ctx, CombinerConfig{
		Round: 99, ShardIDs: []uint64{0, 1}, Quorum: 1, StageDeadline: 5 * time.Second,
	}, net.Server())
	if err != nil {
		t.Fatalf("stale frame aborted the round: %v", err)
	}
	<-done
	if !report.Degraded || len(report.Missing) != 1 || report.Missing[0] != 0 {
		t.Fatalf("stale-shadowed shard not degraded: %+v", report)
	}
	if report.Sum.Data[0] != 5 {
		t.Fatalf("fold took a stale sum: %v", report.Sum.Data)
	}

	// Duplicates plus a silent shard: shards 0 and 1 double-send, shard 2
	// never shows up. Quorum 2 seals a degraded fold of exactly one copy
	// each.
	net2 := transport.NewMemoryNetwork(64)
	d0, _ := net2.Connect(0)
	d1, _ := net2.Connect(1)
	done2 := make(chan struct{})
	go func() {
		defer close(done2)
		_ = d0.Send(transport.Frame{Stage: engine.TagShardPartial, Payload: mkPartial(0, 50, 3)})
		_ = d0.Send(transport.Frame{Stage: engine.TagShardPartial, Payload: mkPartial(0, 50, 3)})
		time.Sleep(150 * time.Millisecond)
		_ = d1.Send(transport.Frame{Stage: engine.TagShardPartial, Payload: mkPartial(1, 50, 4)})
		_ = d1.Send(transport.Frame{Stage: engine.TagShardPartial, Payload: mkPartial(1, 50, 4)})
	}()
	report2, err := RunCombiner(ctx, CombinerConfig{
		Round: 50, ShardIDs: []uint64{0, 1, 2}, Quorum: 2, StageDeadline: 5 * time.Second,
	}, net2.Server())
	if err != nil {
		t.Fatalf("duplicate frames aborted the round: %v", err)
	}
	<-done2
	if !report2.Degraded || len(report2.Missing) != 1 || report2.Missing[0] != 2 {
		t.Fatalf("silent shard not degraded: %+v", report2)
	}
	if report2.Sum.Data[0] != 7 { // 3 + 4, each folded exactly once
		t.Fatalf("duplicate partial folded twice: %v", report2.Sum.Data)
	}
}

// combinerFrames returns the hello and partial frames shard sends for round,
// its partial summing to val per coordinate.
func combinerFrames(t *testing.T, shard, round, val uint64) (hello, partial transport.Frame) {
	t.Helper()
	p, err := combine.EncodePartial(combine.Partial{
		Shard: shard, Round: round,
		Sum:       ring.Vector{Bits: 16, Data: []uint64{val, val}},
		Survivors: []uint64{shard*10 + 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return transport.Frame{Stage: engine.TagShardHello, Payload: combine.EncodeHello(round, shard)},
		transport.Frame{Stage: engine.TagShardPartial, Payload: p}
}

// TestCombinerEarlyPartialKept: a fast shard's hello and partial both
// reach the combiner before a slow shard's hello. The presence stage must
// keep that partial for the partial stage, not discard it as a tag
// mismatch — both shards fold.
func TestCombinerEarlyPartialKept(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	net := transport.NewMemoryNetwork(64)
	c0, _ := net.Connect(0)
	c1, _ := net.Connect(1)
	hello0, partial0 := combinerFrames(t, 0, 7, 3)
	hello1, partial1 := combinerFrames(t, 1, 7, 4)
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = c0.Send(hello0)
		_ = c0.Send(partial0)
		time.Sleep(150 * time.Millisecond) // shard 0 is done before shard 1 shows up
		_ = c1.Send(hello1)
		_ = c1.Send(partial1)
	}()
	report, err := RunCombiner(ctx, CombinerConfig{
		Round: 7, ShardIDs: []uint64{0, 1}, StageDeadline: time.Second, AwaitHellos: true,
	}, net.Server())
	<-done
	if err != nil {
		t.Fatalf("early partial lost: %v", err)
	}
	if report.Degraded || report.Sum.Data[0] != 7 {
		t.Fatalf("want both shards folded (3 + 4): %+v", report)
	}
}

// TestCombinerStalePartialNotParked: a round-6 partial that reaches the
// round-7 presence stage ahead of its sender's hello is discarded there,
// not parked — parked, it would take shard 0's slot in the partial stage
// and shadow the real round-7 partial.
func TestCombinerStalePartialNotParked(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	net := transport.NewMemoryNetwork(64)
	c0, _ := net.Connect(0)
	c1, _ := net.Connect(1)
	_, stale := combinerFrames(t, 0, 6, 9)
	hello0, partial0 := combinerFrames(t, 0, 7, 3)
	hello1, partial1 := combinerFrames(t, 1, 7, 4)
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = c0.Send(stale)
		_ = c0.Send(hello0)
		time.Sleep(150 * time.Millisecond) // the stale frame meets the presence stage
		_ = c1.Send(hello1)
		_ = c0.Send(partial0)
		_ = c1.Send(partial1)
	}()
	report, err := RunCombiner(ctx, CombinerConfig{
		Round: 7, ShardIDs: []uint64{0, 1}, StageDeadline: time.Second, AwaitHellos: true,
	}, net.Server())
	<-done
	if err != nil {
		t.Fatalf("stale partial cost shard 0 its slot: %v", err)
	}
	if report.Degraded || report.Sum.Data[0] != 7 || len(report.StaleRounds) != 0 {
		t.Fatalf("want both round-7 partials folded (3 + 4) and the stale one gone: %+v", report)
	}
}

// TestShardWire1kKillOneShard is the scale acceptance case: a
// 1000-simulated-client round across four shard aggregators over the
// wire driver, with one shard killed mid-round. The round must complete
// degraded — 750 survivors aggregated, the dead shard named — without
// aborting.
func TestShardWire1kKillOneShard(t *testing.T) {
	if testing.Short() {
		t.Skip("1k-client wire round: skipped in -short")
	}
	const shards, perShard = 4, 250
	ids := seqIDs(shards * perShard)
	rig := newShardedRig(t, ids, shards, secagg.Config{Threshold: 100, Bits: 16, Dim: 4})
	rig.quorum, rig.stageDeadline = 3, 90*time.Second
	for _, sh := range rig.shards {
		// SecAgg+ at a pinned low degree: 1k complete-graph agreements
		// would dominate the test for no topological insight.
		var err error
		if sh.cfg, err = secaggplus.NewConfig(sh.cfg, 8); err != nil {
			t.Fatal(err)
		}
		sh.stageDeadline = 15 * time.Second
	}
	// Kill shard 3 while its round is in flight (a 250-client round takes
	// well over 50ms on this transport).
	dead, kill := context.WithCancel(context.Background())
	rig.shards[3].serverCtx, rig.shards[3].lenient = dead, true
	time.AfterFunc(50*time.Millisecond, kill)

	report, _, err := rig.round(300, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Degraded || !slices.Equal(report.Missing, []uint64{3}) {
		t.Fatalf("killed shard not degraded as missing=[3]: degraded=%v missing=%v",
			report.Degraded, report.Missing)
	}
	rig.checkSum(report, ids[:3*perShard])
}
