package core

import (
	"encoding/binary"
	"sync"
	"testing"
	"time"

	"repro/internal/prg"
	"repro/internal/secagg"
	"repro/internal/secaggplus"
	"repro/internal/transport"
	"repro/internal/xnoise"
)

// chaosRig is a lenient one-shot round over memory with XNoise whose
// client uplinks pass through fault injectors (by id) and then wrap —
// wrap's extra sends go through the injector, whose AfterSend counts
// them. Faulty clients may legitimately fail; the server's outcome is what
// the chaos tests assert.
func chaosRig(t *testing.T, faults map[uint64]transport.FaultConfig,
	wrap func(transport.ClientConn) transport.ClientConn) *wireRig {
	rig := newWireRig(t, "memory", secagg.Config{
		ClientIDs: []uint64{1, 2, 3, 4, 5}, Threshold: 3, Bits: 20, Dim: 32,
		XNoise: &xnoise.Plan{NumClients: 5, DropoutTolerance: 2, Threshold: 3, TargetVariance: 30},
	})
	rig.lenient, rig.stageDeadline = true, 500*time.Millisecond
	rig.wrap = func(id uint64, c transport.ClientConn) transport.ClientConn {
		if fc, ok := faults[id]; ok {
			c = transport.NewFaultInjector(fc).WrapClient(c)
		}
		if wrap != nil {
			c = wrap(c)
		}
		return c
	}
	return rig
}

// TestChaosLossyClientTreatedAsDropout: a client whose uplink dies after
// its first two sends (advertise + shares) looks to the server exactly
// like a §6.1 dropout; the round completes with the survivors and the
// XNoise residual stays near the target.
func TestChaosLossyClientTreatedAsDropout(t *testing.T) {
	rig := chaosRig(t, map[uint64]transport.FaultConfig{
		4: {DropProb: 1, AfterSend: 2, Seed: prg.NewSeed([]byte("lossy4"))},
	}, nil)
	_, res := rig.round(7, nil)
	if len(res.Dropped) != 1 || res.Dropped[0] != 4 {
		t.Fatalf("dropped = %v, want [4]", res.Dropped)
	}
	rig.checkMean(res, []uint64{1, 2, 3, 5})
}

// TestChaosDuplicatedFramesHarmless: duplicating every frame in both
// directions must not corrupt the round — stage collection is keyed by
// sender, so replays are idempotent.
func TestChaosDuplicatedFramesHarmless(t *testing.T) {
	faults := make(map[uint64]transport.FaultConfig)
	for id := uint64(1); id <= 5; id++ {
		faults[id] = transport.FaultConfig{DupProb: 1, Seed: prg.NewSeed([]byte{byte(id)})}
	}
	rig := chaosRig(t, faults, nil)
	_, res := rig.round(7, nil)
	if len(res.Dropped) != 0 {
		t.Fatalf("dropped = %v, want none under duplication-only faults", res.Dropped)
	}
	rig.checkMean(res, rig.cfg.ClientIDs)
}

// TestChaosJitterTolerated: bounded per-frame delay on every link slows
// the round but must not change its outcome.
func TestChaosJitterTolerated(t *testing.T) {
	faults := make(map[uint64]transport.FaultConfig)
	for id := uint64(1); id <= 5; id++ {
		faults[id] = transport.FaultConfig{DelayMax: 10 * time.Millisecond, Seed: prg.NewSeed([]byte{0x40, byte(id)})}
	}
	_, res := chaosRig(t, faults, nil).round(7, nil)
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

// storm wraps a client uplink in a frame storm.
func storm(inner transport.ClientConn) transport.ClientConn {
	return &frameStormClient{ClientConn: inner}
}

// TestChaosStaleDupOutOfOrderFrames: every client's uplink replays stale
// frames, duplicates every message, and interleaves unknown-stage junk —
// all landing mid-collection in the engine's concurrent admission loop.
// The round must complete with no spurious dropouts and the exact
// expected aggregate distribution. Run under -race in CI: this is the
// torture test for the collector's admission/decode/apply overlap.
func TestChaosStaleDupOutOfOrderFrames(t *testing.T) {
	rig := chaosRig(t, nil, storm)
	_, res := rig.round(9, nil)
	if len(res.Dropped) != 0 {
		t.Fatalf("dropped = %v, want none under frame storm", res.Dropped)
	}
	rig.checkMean(res, rig.cfg.ClientIDs)
}

// TestChaosFrameStormWithDropout: the same hostile frame patterns plus a
// genuine mid-round dropout (client 4 dies after shares): stale replays
// of the dead client's early frames keep arriving while later stages
// collect, and must not resurrect it or stall the threshold abort logic.
func TestChaosFrameStormWithDropout(t *testing.T) {
	rig := chaosRig(t, map[uint64]transport.FaultConfig{
		4: {DropProb: 1, AfterSend: 2, Seed: prg.NewSeed([]byte("storm4"))},
	}, storm)
	_, res := rig.round(9, nil)
	if len(res.Dropped) != 1 || res.Dropped[0] != 4 {
		t.Fatalf("dropped = %v, want [4]", res.Dropped)
	}
	rig.checkMean(res, []uint64{1, 2, 3, 5})
}

// TestChaosFrameStormSecAggPlusGraph: the frame-storm patterns against a
// SecAgg+ sparse-graph round running on live key-agreement sessions —
// stale replays, duplicates, and unknown-stage junk land mid-collection
// while the per-neighborhood session caches serve concurrent mask workers,
// and a genuine dropout forces the server through reconstruction under the
// storm. Run under -race in CI.
func TestChaosFrameStormSecAggPlusGraph(t *testing.T) {
	saCfg, err := secaggplus.NewConfig(secagg.Config{ClientIDs: seqIDs(8), Threshold: 3, Bits: 20, Dim: 32}, 4)
	if err != nil {
		t.Fatal(err)
	}
	rig := newWireRig(t, "memory", saCfg)
	rig.sessions()
	rig.lenient, rig.stageDeadline = true, 500*time.Millisecond
	rig.wrap = func(_ uint64, c transport.ClientConn) transport.ClientConn { return storm(c) }
	// Client 6 dies after sharing: reconstruction under the storm.
	_, res := rig.round(13, secagg.DropSchedule{6: secagg.StageMaskedInput})
	if len(res.Dropped) != 1 || res.Dropped[0] != 6 {
		t.Fatalf("dropped = %v, want [6]", res.Dropped)
	}
	rig.checkSum(res, []uint64{1, 2, 3, 4, 5, 7, 8}) // no noise in this round
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
	_, _, err := chaosRig(t, faults, nil).try(7, nil)
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
	rig := newWireRig(t, "memory", secagg.Config{ClientIDs: []uint64{1, 2, 3, 4, 5}, Threshold: 3, Bits: 20, Dim: 32})
	rig.wrap = func(id uint64, c transport.ClientConn) transport.ClientConn {
		switch id {
		case 3:
			return &slowClient{ClientConn: c, delay: 30 * time.Millisecond}
		case 4:
			return &forgingClient{ClientConn: c, claim: 3}
		}
		return c
	}
	_, res := rig.round(11, nil)
	if len(res.Survivors) != 5 || len(res.Dropped) != 0 {
		t.Fatalf("survivors = %v, dropped = %v, want every member a survivor", res.Survivors, res.Dropped)
	}
	rig.checkSum(res, rig.cfg.ClientIDs) // the forger's input counted once, under its own id
}
