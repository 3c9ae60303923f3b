package core

import (
	"context"
	"crypto/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/combine"
	"repro/internal/engine"
	"repro/internal/ring"
	"repro/internal/secagg"
	"repro/internal/secaggplus"
	"repro/internal/transport"
)

// runWireShard spins up one shard of the wire topology on its own memory
// network: the shard aggregator (RunShardWire) plus one goroutine per
// sub-roster client, with constant per-coordinate inputs of value `val`.
// The returned wait group covers the clients; the report channel gets the
// aggregator's outcome.
func runWireShard(t *testing.T, ctx context.Context, shard uint64, round uint64,
	saCfg secagg.Config, up transport.ClientConn, val uint64,
	deadline time.Duration) (*sync.WaitGroup, chan *combine.RoundReport, chan error) {

	t.Helper()
	net := transport.NewMemoryNetwork(256)
	var wg sync.WaitGroup
	for _, id := range saCfg.ClientIDs {
		conn, err := net.Connect(id)
		if err != nil {
			t.Fatal(err)
		}
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := ring.NewVector(saCfg.Bits, saCfg.Dim)
			for j := range v.Data {
				v.Data[j] = val
			}
			// Client errors are expected on killed shards; surviving
			// shards assert via the aggregate instead.
			_, _ = RunWireClient(ctx, WireClientConfig{
				SecAgg: saCfg, ID: id, Input: v, DropBefore: NoDrop, Rand: rand.Reader,
			}, conn)
		}()
	}
	reports := make(chan *combine.RoundReport, 1)
	errs := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		report, _, err := RunShardWire(ctx, ShardWireConfig{
			Shard: shard, Round: round,
			Server:         WireServerConfig{SecAgg: saCfg, StageDeadline: deadline},
			ReportDeadline: 10 * time.Second,
		}, net.Server(), up)
		reports <- report
		errs <- err
	}()
	return &wg, reports, errs
}

func shardRoster(shard, size int) []uint64 {
	ids := make([]uint64, size)
	for i := range ids {
		ids[i] = uint64(shard*size + i + 1)
	}
	return ids
}

// TestShardWireCleanRound: two shard aggregators, each running a full
// engine-backed round over four clients, fold through the root combiner
// over real (memory) transports. The report must be clean and the sum
// exact.
func TestShardWireCleanRound(t *testing.T) {
	const shards, perShard, dim = 2, 4, 8
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	combNet := transport.NewMemoryNetwork(64)
	var wgs []*sync.WaitGroup
	for s := 0; s < shards; s++ {
		up, err := combNet.Connect(uint64(s))
		if err != nil {
			t.Fatal(err)
		}
		saCfg := secagg.Config{
			Round: 77000, ClientIDs: shardRoster(s, perShard), Threshold: 3, Bits: 16, Dim: dim,
		}
		saCfg.Round += uint64(s) // shard-local round spacing
		wg, _, _ := runWireShard(t, ctx, uint64(s), 77, saCfg, up, 1, 2*time.Second)
		wgs = append(wgs, wg)
	}
	report, err := RunCombiner(ctx, CombinerConfig{
		Round: 77, ShardIDs: []uint64{0, 1}, AwaitHellos: true, StageDeadline: 10 * time.Second,
	}, combNet.Server())
	if err != nil {
		t.Fatal(err)
	}
	if report.Degraded || len(report.Missing) != 0 {
		t.Fatalf("clean round degraded: %+v", report)
	}
	if len(report.Survivors) != shards*perShard {
		t.Fatalf("survivors = %v", report.Survivors)
	}
	for i, v := range report.Sum.Data {
		if v != shards*perShard {
			t.Fatalf("sum[%d] = %d, want %d", i, v, shards*perShard)
		}
	}
	cancel()
	for _, wg := range wgs {
		wg.Wait()
	}
}

// TestShardWireShardCrash: three shards, quorum two; one shard's context
// is cancelled before its round can finish, so its partial never arrives.
// The combiner must degrade — fold the two live partials, name the dead
// shard — not abort.
func TestShardWireShardCrash(t *testing.T) {
	const shards, perShard, dim = 3, 4, 4
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	deadCtx, killShard := context.WithCancel(ctx)
	killShard() // dead on arrival: hello goes out, the round cannot

	combNet := transport.NewMemoryNetwork(64)
	var wgs []*sync.WaitGroup
	for s := 0; s < shards; s++ {
		up, err := combNet.Connect(uint64(s))
		if err != nil {
			t.Fatal(err)
		}
		saCfg := secagg.Config{
			Round: 88000 + uint64(s)*1000, ClientIDs: shardRoster(s, perShard),
			Threshold: 3, Bits: 16, Dim: dim,
		}
		sctx := ctx
		if s == 2 {
			sctx = deadCtx
		}
		wg, _, errsC := runWireShard(t, sctx, uint64(s), 88, saCfg, up, 1, time.Second)
		wgs = append(wgs, wg)
		if s == 2 {
			go func() { <-errsC }() // drain the dead shard's error
		}
	}
	report, err := RunCombiner(ctx, CombinerConfig{
		Round: 88, ShardIDs: []uint64{0, 1, 2}, Quorum: 2, StageDeadline: 8 * time.Second,
	}, combNet.Server())
	if err != nil {
		t.Fatal(err)
	}
	if !report.Degraded || len(report.Missing) != 1 || report.Missing[0] != 2 {
		t.Fatalf("crash not degraded as missing=[2]: %+v", report)
	}
	if len(report.Survivors) != 2*perShard {
		t.Fatalf("survivors = %v", report.Survivors)
	}
	for i, v := range report.Sum.Data {
		if v != 2*perShard {
			t.Fatalf("sum[%d] = %d, want %d", i, v, 2*perShard)
		}
	}
	cancel()
	for _, wg := range wgs {
		wg.Wait()
	}
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
	const shards, perShard, dim = 4, 250, 4
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	deadCtx, killShard := context.WithCancel(ctx)

	combNet := transport.NewMemoryNetwork(64)
	var wgs []*sync.WaitGroup
	for s := 0; s < shards; s++ {
		up, err := combNet.Connect(uint64(s))
		if err != nil {
			t.Fatal(err)
		}
		base := secagg.Config{
			Round: 300000 + uint64(s)*1000, ClientIDs: shardRoster(s, perShard),
			Threshold: 100, Bits: 16, Dim: dim,
		}
		// SecAgg+ at a pinned low degree: 1k complete-graph agreements
		// would dominate the test for no topological insight.
		saCfg, err := secaggplus.NewConfig(base, 8)
		if err != nil {
			t.Fatal(err)
		}
		sctx := ctx
		if s == 3 {
			sctx = deadCtx
		}
		wg, _, errsC := runWireShard(t, sctx, uint64(s), 300, saCfg, up, 1, 15*time.Second)
		wgs = append(wgs, wg)
		if s == 3 {
			go func() { <-errsC }()
		}
	}
	// Kill shard 3 while its round is in flight (a 250-client round takes
	// well over 50ms on this transport).
	time.AfterFunc(50*time.Millisecond, killShard)

	report, err := RunCombiner(ctx, CombinerConfig{
		Round: 300, ShardIDs: []uint64{0, 1, 2, 3}, Quorum: 3,
		AwaitHellos: true, StageDeadline: 90 * time.Second,
	}, combNet.Server())
	if err != nil {
		t.Fatal(err)
	}
	if !report.Degraded || len(report.Missing) != 1 || report.Missing[0] != 3 {
		t.Fatalf("killed shard not degraded as missing=[3]: degraded=%v missing=%v",
			report.Degraded, report.Missing)
	}
	if len(report.Survivors) != 3*perShard {
		t.Fatalf("%d survivors, want %d", len(report.Survivors), 3*perShard)
	}
	for i, v := range report.Sum.Data {
		if v != 3*perShard {
			t.Fatalf("sum[%d] = %d, want %d", i, v, 3*perShard)
		}
	}
	cancel()
	for _, wg := range wgs {
		wg.Wait()
	}
}
