package core

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/prg"
	"repro/internal/ring"
	"repro/internal/secagg"
	"repro/internal/secaggplus"
	"repro/internal/transport"
	"repro/internal/xnoise"
)

// chaosRound runs one wire round over a memory network with per-client
// fault injectors, returning the server result (or error) and the set of
// clients the server reported dropped.
func chaosRound(t *testing.T, faults map[uint64]transport.FaultConfig,
	serverFault *transport.FaultConfig) (*secagg.Result, error) {
	t.Helper()
	const n, dim = 5, 32
	ids := []uint64{1, 2, 3, 4, 5}
	plan := &xnoise.Plan{NumClients: n, DropoutTolerance: 2, Threshold: 3, TargetVariance: 30}
	saCfg := secagg.Config{
		Round: 7, ClientIDs: ids, Threshold: 3, Bits: 20, Dim: dim, XNoise: plan,
	}
	net := transport.NewMemoryNetwork(256)
	clientConns := make(map[uint64]transport.ClientConn, n)
	for _, id := range ids {
		c, err := net.Connect(id)
		if err != nil {
			t.Fatal(err)
		}
		if fc, ok := faults[id]; ok {
			c = transport.NewFaultInjector(fc).WrapClient(c)
		}
		clientConns[id] = c
	}
	serverConn := transport.ServerConn(net.Server())
	if serverFault != nil {
		serverConn = transport.NewFaultInjector(*serverFault).WrapServer(serverConn)
	}

	inputs := make(map[uint64]ring.Vector, n)
	for _, id := range ids {
		v := ring.NewVector(20, dim)
		for j := range v.Data {
			v.Data[j] = id
		}
		inputs[id] = v
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for _, id := range ids {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := WireClientConfig{
				SecAgg: saCfg, ID: id, Input: inputs[id],
				DropBefore: NoDrop, Rand: rand.Reader,
			}
			// Faulty clients may legitimately error (e.g. never receive
			// the result); the server outcome is what the test asserts.
			_, _ = RunWireClient(ctx, cfg, clientConns[id])
		}()
	}
	res, err := RunWireServer(ctx,
		WireServerConfig{SecAgg: saCfg, StageDeadline: 500 * time.Millisecond}, serverConn)
	cancel() // release any clients still blocked on Recv
	wg.Wait()
	return res, err
}

// TestChaosLossyClientTreatedAsDropout: a client whose uplink dies after
// its first two sends (advertise + shares) looks to the server exactly
// like a §6.1 dropout; the round completes with the survivors and the
// XNoise residual stays near the target.
func TestChaosLossyClientTreatedAsDropout(t *testing.T) {
	res, err := chaosRound(t, map[uint64]transport.FaultConfig{
		4: {DropProb: 1, AfterSend: 2, Seed: prg.NewSeed([]byte("lossy4"))},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Dropped) != 1 || res.Dropped[0] != 4 {
		t.Fatalf("dropped = %v, want [4]", res.Dropped)
	}
	// Signal: 1+2+3+5 = 11 per coordinate plus noise (std √30).
	centered := (ring.Vector{Bits: 20, Data: res.Sum}).Centered()
	var mean float64
	for _, v := range centered {
		mean += float64(v) - 11
	}
	mean /= float64(len(centered))
	if math.Abs(mean) > 5 {
		t.Errorf("aggregate mean offset %v under lossy client", mean)
	}
}

// TestChaosDuplicatedFramesHarmless: duplicating every frame in both
// directions must not corrupt the round — stage collection is keyed by
// sender, so replays are idempotent.
func TestChaosDuplicatedFramesHarmless(t *testing.T) {
	faults := make(map[uint64]transport.FaultConfig)
	for id := uint64(1); id <= 5; id++ {
		faults[id] = transport.FaultConfig{DupProb: 1, Seed: prg.NewSeed([]byte{byte(id)})}
	}
	res, err := chaosRound(t, faults, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Dropped) != 0 {
		t.Fatalf("dropped = %v, want none under duplication-only faults", res.Dropped)
	}
	centered := (ring.Vector{Bits: 20, Data: res.Sum}).Centered()
	var mean float64
	for _, v := range centered {
		mean += float64(v) - 15 // 1+2+3+4+5
	}
	mean /= float64(len(centered))
	if math.Abs(mean) > 5 {
		t.Errorf("aggregate mean offset %v under duplication", mean)
	}
}

// TestChaosJitterTolerated: bounded per-frame delay on every link slows
// the round but must not change its outcome.
func TestChaosJitterTolerated(t *testing.T) {
	faults := make(map[uint64]transport.FaultConfig)
	for id := uint64(1); id <= 5; id++ {
		faults[id] = transport.FaultConfig{DelayMax: 10 * time.Millisecond, Seed: prg.NewSeed([]byte{0x40, byte(id)})}
	}
	res, err := chaosRound(t, faults, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Dropped) != 0 {
		t.Fatalf("dropped = %v, want none under jitter below the stage deadline", res.Dropped)
	}
}

// frameStormClient wraps a client uplink so every Send also injects, mid-
// collection, the frame patterns the concurrent collector must shrug off:
// a replay of the client's first-ever frame (a stale advertise arriving
// during later stages, i.e. out-of-order delivery), an exact duplicate of
// the current frame, and a frame with a stage tag no stage ever collects.
type frameStormClient struct {
	transport.ClientConn

	mu    sync.Mutex
	first *transport.Frame
}

func (c *frameStormClient) Send(f transport.Frame) error {
	c.mu.Lock()
	if c.first == nil {
		cp := f
		cp.Payload = append([]byte(nil), f.Payload...)
		c.first = &cp
	}
	stale := *c.first
	c.mu.Unlock()

	// Out-of-order/stale: the round's first frame again, ahead of the
	// real one.
	if err := c.ClientConn.Send(stale); err != nil {
		return err
	}
	if err := c.ClientConn.Send(f); err != nil {
		return err
	}
	// Duplicate of the live frame.
	if err := c.ClientConn.Send(f); err != nil {
		return err
	}
	// Unknown stage tag with junk payload: must be discarded, not decoded.
	return c.ClientConn.Send(transport.Frame{Stage: 999, Payload: []byte{0xDE, 0xAD}})
}

// TestChaosStaleDupOutOfOrderFrames: every client's uplink replays stale
// frames, duplicates every message, and interleaves unknown-stage junk —
// all landing mid-collection in the engine's concurrent admission loop.
// The round must complete with no spurious dropouts and the exact
// expected aggregate distribution. Run under -race in CI: this is the
// torture test for the collector's admission/decode/apply overlap.
func TestChaosStaleDupOutOfOrderFrames(t *testing.T) {
	storm := func(inner transport.ClientConn) transport.ClientConn {
		return &frameStormClient{ClientConn: inner}
	}
	res, err := chaosRoundWrapped(t, nil, storm)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Dropped) != 0 {
		t.Fatalf("dropped = %v, want none under frame storm", res.Dropped)
	}
	centered := (ring.Vector{Bits: 20, Data: res.Sum}).Centered()
	var mean float64
	for _, v := range centered {
		mean += float64(v) - 15 // 1+2+3+4+5
	}
	mean /= float64(len(centered))
	if math.Abs(mean) > 5 {
		t.Errorf("aggregate mean offset %v under frame storm", mean)
	}
}

// TestChaosFrameStormWithDropout: the same hostile frame patterns plus a
// genuine mid-round dropout (client 4 dies after shares): stale replays
// of the dead client's early frames keep arriving while later stages
// collect, and must not resurrect it or stall the threshold abort logic.
func TestChaosFrameStormWithDropout(t *testing.T) {
	storm := func(inner transport.ClientConn) transport.ClientConn {
		return &frameStormClient{ClientConn: inner}
	}
	res, err := chaosRoundWrapped(t, map[uint64]transport.FaultConfig{
		4: {DropProb: 1, AfterSend: 2, Seed: prg.NewSeed([]byte("storm4"))},
	}, storm)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Dropped) != 1 || res.Dropped[0] != 4 {
		t.Fatalf("dropped = %v, want [4]", res.Dropped)
	}
	centered := (ring.Vector{Bits: 20, Data: res.Sum}).Centered()
	var mean float64
	for _, v := range centered {
		mean += float64(v) - 11 // 1+2+3+5
	}
	mean /= float64(len(centered))
	if math.Abs(mean) > 5 {
		t.Errorf("aggregate mean offset %v under storm+dropout", mean)
	}
}

// chaosRoundWrapped is chaosRound with an extra per-client conn wrapper
// applied outside the fault injector (wrapper sees what the injector lets
// through; the injector's AfterSend counts the wrapper's extra sends).
func chaosRoundWrapped(t *testing.T, faults map[uint64]transport.FaultConfig,
	wrap func(transport.ClientConn) transport.ClientConn) (*secagg.Result, error) {
	t.Helper()
	const n, dim = 5, 32
	ids := []uint64{1, 2, 3, 4, 5}
	plan := &xnoise.Plan{NumClients: n, DropoutTolerance: 2, Threshold: 3, TargetVariance: 30}
	saCfg := secagg.Config{
		Round: 9, ClientIDs: ids, Threshold: 3, Bits: 20, Dim: dim, XNoise: plan,
	}
	net := transport.NewMemoryNetwork(256)
	clientConns := make(map[uint64]transport.ClientConn, n)
	for _, id := range ids {
		c, err := net.Connect(id)
		if err != nil {
			t.Fatal(err)
		}
		if fc, ok := faults[id]; ok {
			c = transport.NewFaultInjector(fc).WrapClient(c)
		}
		clientConns[id] = wrap(c)
	}
	inputs := make(map[uint64]ring.Vector, n)
	for _, id := range ids {
		v := ring.NewVector(20, dim)
		for j := range v.Data {
			v.Data[j] = id
		}
		inputs[id] = v
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for _, id := range ids {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := WireClientConfig{
				SecAgg: saCfg, ID: id, Input: inputs[id],
				DropBefore: NoDrop, Rand: rand.Reader,
			}
			_, _ = RunWireClient(ctx, cfg, clientConns[id])
		}()
	}
	res, err := RunWireServer(ctx,
		WireServerConfig{SecAgg: saCfg, StageDeadline: 500 * time.Millisecond}, net.Server())
	cancel()
	wg.Wait()
	return res, err
}

// TestChaosFrameStormSecAggPlusGraph: the frame-storm patterns against a
// SecAgg+ sparse-graph round running on live key-agreement sessions —
// stale replays, duplicates, and unknown-stage junk land mid-collection
// while the per-neighborhood session caches serve concurrent mask workers,
// and a genuine dropout forces the server through reconstruction under the
// storm. Run under -race in CI.
func TestChaosFrameStormSecAggPlusGraph(t *testing.T) {
	const n, dim, degree = 8, 32, 4
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(i + 1)
	}
	base := secagg.Config{Round: 13, ClientIDs: ids, Threshold: 3, Bits: 20, Dim: dim}
	saCfg, err := secaggplus.NewConfig(base, degree)
	if err != nil {
		t.Fatal(err)
	}
	serverSess := secagg.NewServerSession()
	clientSess := make(map[uint64]*secagg.Session, n)
	for _, id := range ids {
		s, err := secagg.NewSession(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		clientSess[id] = s
	}

	net := transport.NewMemoryNetwork(256)
	clientConns := make(map[uint64]transport.ClientConn, n)
	for _, id := range ids {
		c, err := net.Connect(id)
		if err != nil {
			t.Fatal(err)
		}
		clientConns[id] = &frameStormClient{ClientConn: c}
	}
	inputs := make(map[uint64]ring.Vector, n)
	for _, id := range ids {
		v := ring.NewVector(20, dim)
		for j := range v.Data {
			v.Data[j] = id
		}
		inputs[id] = v
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for _, id := range ids {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := WireClientConfig{
				SecAgg: saCfg, ID: id, Input: inputs[id],
				DropBefore: NoDrop, Rand: rand.Reader, Session: clientSess[id],
			}
			if id == 6 { // dies after sharing: reconstruction under storm
				cfg.DropBefore = secagg.StageMaskedInput
			}
			_, _ = RunWireClient(ctx, cfg, clientConns[id])
		}()
	}
	res, err := RunWireServer(ctx, WireServerConfig{
		SecAgg: saCfg, StageDeadline: 500 * time.Millisecond, Session: serverSess,
	}, net.Server())
	cancel()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Dropped) != 1 || res.Dropped[0] != 6 {
		t.Fatalf("dropped = %v, want [6]", res.Dropped)
	}
	want := float64(1 + 2 + 3 + 4 + 5 + 7 + 8)
	centered := (ring.Vector{Bits: 20, Data: res.Sum}).Centered()
	for i, v := range centered {
		if float64(v) != want {
			t.Fatalf("sum[%d] = %v, want %v (no noise in this round)", i, v, want)
		}
	}
}

// TestChaosTooManyLossyClientsAborts: when enough uplinks die that the
// survivor count falls below the SecAgg threshold, the server must abort
// with an error — never hang, never emit an under-noised aggregate.
func TestChaosTooManyLossyClientsAborts(t *testing.T) {
	faults := make(map[uint64]transport.FaultConfig)
	for _, id := range []uint64{2, 3, 4} { // 3 of 5 die; survivors 2 < t = 3
		faults[id] = transport.FaultConfig{DropProb: 1, AfterSend: 2, Seed: prg.NewSeed([]byte{0x50, byte(id)})}
	}
	start := time.Now()
	_, err := chaosRound(t, faults, nil)
	if err == nil {
		t.Fatal("expected abort when survivors fall below threshold")
	}
	if elapsed := time.Since(start); elapsed > 20*time.Second {
		t.Errorf("abort took %v — server should fail fast on starved stages", elapsed)
	}
}

// forgingClient rewrites the sender field of its own advertise,
// masked-input and unmask payloads to claim another member's id (all three
// layouts are [magic][tag][From:8]…).
type forgingClient struct {
	transport.ClientConn
	claim uint64
}

func (c *forgingClient) Send(f transport.Frame) error {
	switch f.Stage {
	case secagg.TagAdvertise, secagg.TagMasked, secagg.TagUnmask:
		p := append([]byte(nil), f.Payload...)
		binary.LittleEndian.PutUint64(p[2:], c.claim)
		f.Payload = p
	}
	return c.ClientConn.Send(f)
}

// slowClient delays every uplink frame.
type slowClient struct {
	transport.ClientConn
	delay time.Duration
}

func (c *slowClient) Send(f transport.Frame) error {
	time.Sleep(c.delay)
	return c.ClientConn.Send(f)
}

// TestWireSpoofedSenderStamped: client 4 claims to be client 3 inside its
// advertise, masked-input and unmask payloads, and client 3's own frames
// are delayed so the forged ones arrive first. The server must credit each
// frame to the connection it arrived on: the round completes with every
// member a survivor and the exact plaintext sum, the forger counted once
// under its own id. (Unstamped, the forged frames land under id 3 and the
// round dies with a duplicate advertisement / masked input when 3's own
// arrive.)
func TestWireSpoofedSenderStamped(t *testing.T) {
	const n, dim = 5, 32
	ids := []uint64{1, 2, 3, 4, 5}
	saCfg := secagg.Config{Round: 11, ClientIDs: ids, Threshold: 3, Bits: 20, Dim: dim}
	net := transport.NewMemoryNetwork(256)
	conns := make(map[uint64]transport.ClientConn, n)
	for _, id := range ids {
		c, err := net.Connect(id)
		if err != nil {
			t.Fatal(err)
		}
		switch id {
		case 3:
			c = &slowClient{ClientConn: c, delay: 30 * time.Millisecond}
		case 4:
			c = &forgingClient{ClientConn: c, claim: 3}
		}
		conns[id] = c
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			input := ring.NewVector(20, dim)
			for j := range input.Data {
				input.Data[j] = id
			}
			if _, err := RunWireClient(ctx, WireClientConfig{
				SecAgg: saCfg, ID: id, Input: input, DropBefore: NoDrop, Rand: rand.Reader,
			}, conns[id]); err != nil {
				t.Errorf("client %d: %v", id, err)
			}
		}(id)
	}
	res, err := RunWireServer(ctx, WireServerConfig{SecAgg: saCfg, StageDeadline: 2 * time.Second}, net.Server())
	if err != nil {
		cancel() // release the clients waiting for a result that will not come
	}
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Survivors) != n || len(res.Dropped) != 0 {
		t.Fatalf("survivors = %v, dropped = %v, want every member a survivor", res.Survivors, res.Dropped)
	}
	for i, v := range res.Sum {
		if v != 1+2+3+4+5 {
			t.Fatalf("sum[%d] = %d, want 15: the forger's input counted once, under its own id", i, v)
		}
	}
}
