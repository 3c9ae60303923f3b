package lightsecagg

import (
	"context"
	"crypto/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/field"
	"repro/internal/transport"
)

// Frame-storm chaos suite against the engine-backed wire driver: every
// client's uplink replays stale frames, duplicates every message, and
// interleaves unknown-stage junk — all landing mid-collection in the
// engine's admission loop, with the binary codec decoding on it. Mirrors internal/core's chaos suite so both protocol
// families face the same torture. Run under -race in CI.

// frameStormClient wraps a client uplink so every Send also injects a
// replay of the client's first-ever frame (a stale advertise arriving
// during later stages), an exact duplicate of the current frame, and a
// frame with a stage tag no stage ever collects.
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

	if err := c.ClientConn.Send(stale); err != nil {
		return err
	}
	if err := c.ClientConn.Send(f); err != nil {
		return err
	}
	if err := c.ClientConn.Send(f); err != nil {
		return err
	}
	// Unknown stage tag with junk payload: must be discarded, not decoded.
	return c.ClientConn.Send(transport.Frame{Stage: 999, Payload: []byte{0xDE, 0xAD}})
}

// stormWireRound runs one wire round with every client's uplink storming,
// per-client dropout injection, and optional sessions.
func stormWireRound(t *testing.T, cfg Config, inputs map[uint64][]field.Element,
	dropAt map[uint64]WireStage, serverSess *ServerSession,
	clientSess map[uint64]*Session, resume bool) ([]int64, error) {
	t.Helper()
	net := transport.NewMemoryNetwork(256)
	conns := make(map[uint64]transport.ClientConn, len(cfg.ClientIDs))
	for _, id := range cfg.ClientIDs {
		c, err := net.Connect(id)
		if err != nil {
			t.Fatal(err)
		}
		conns[id] = &frameStormClient{ClientConn: c}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for _, id := range cfg.ClientIDs {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			wcfg := WireClientConfig{
				Config: cfg, ID: id, Input: inputs[id],
				DropBefore: dropAt[id], Rand: rand.Reader,
				Resume: resume,
			}
			if clientSess != nil {
				wcfg.Session = clientSess[id]
			}
			// Storming/dropping clients may legitimately error; the server
			// outcome is what the tests assert.
			_, _ = RunWireClient(ctx, wcfg, conns[id])
		}()
	}
	sum, err := RunWireServer(ctx, WireServerConfig{
		Config: cfg, StageDeadline: 500 * time.Millisecond,
		Session: serverSess, Resume: resume,
	}, net.Server())
	cancel()
	wg.Wait()
	if err != nil {
		return nil, err
	}
	out := make([]int64, len(sum))
	for i, e := range sum {
		out[i] = Center(e)
	}
	return out, nil
}

// TestChaosFrameStormWireRound: the full storm against a clean round — it
// must complete with the exact expected sum, no spurious dropouts.
func TestChaosFrameStormWireRound(t *testing.T) {
	cfg := testConfig(5, 1, 1, 24)
	inputs, wantSum := makeInputs(cfg)
	got, err := stormWireRound(t, cfg, inputs, nil, nil, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	want := wantSum(nil)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("coord %d: %d, want %d", i, got[i], want[i])
		}
	}
}

// TestChaosFrameStormWithDropout: the storm plus genuine dropouts — one
// client vanishes before the masked upload (stale replays of its early
// frames keep arriving while later stages collect and must not resurrect
// it) and another vanishes before the recovery response (the quorum stage
// completes from the remaining responders).
func TestChaosFrameStormWithDropout(t *testing.T) {
	cfg := testConfig(6, 1, 2, 16) // U = 4
	inputs, wantSum := makeInputs(cfg)
	drops := map[uint64]WireStage{
		3: WireDropBeforeMasked,
		5: WireDropBeforeAggShare,
	}
	got, err := stormWireRound(t, cfg, inputs, drops, nil, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	want := wantSum(map[uint64]bool{3: true}) // 5 uploaded, so it is in the sum
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("coord %d: %d, want %d", i, got[i], want[i])
		}
	}
}

// TestChaosFrameStormSessionResume: the storm against a resumed round —
// the advertise stage is skipped on the cached roster, so the stale
// replays include frames for a stage the server never collects this
// round, landing on live session caches.
func TestChaosFrameStormSessionResume(t *testing.T) {
	cfg := testConfig(5, 1, 1, 16)
	inputs, wantSum := makeInputs(cfg)
	serverSess := NewServerSession()
	clientSess := make(map[uint64]*Session, len(cfg.ClientIDs))
	for _, id := range cfg.ClientIDs {
		s, err := NewSession(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		clientSess[id] = s
	}
	// Round 1 populates the caches (under storm, too).
	if _, err := stormWireRound(t, cfg, inputs, nil, serverSess, clientSess, false); err != nil {
		t.Fatal(err)
	}
	// Round 2 resumes: no advertise stage, cached channel secrets.
	got, err := stormWireRound(t, cfg, inputs, nil, serverSess, clientSess, true)
	if err != nil {
		t.Fatal(err)
	}
	want := wantSum(nil)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("coord %d: %d, want %d", i, got[i], want[i])
		}
	}
}

// TestChaosStarvedRecoveryAborts: when dropouts push the responder count
// below the recovery threshold the server must abort with an error after
// its stage deadline — never hang, never emit a wrong aggregate.
func TestChaosStarvedRecoveryAborts(t *testing.T) {
	cfg := testConfig(5, 1, 1, 8) // U = 4
	inputs, _ := makeInputs(cfg)
	drops := map[uint64]WireStage{1: WireDropBeforeMasked, 2: WireDropBeforeMasked}
	start := time.Now()
	_, err := stormWireRound(t, cfg, inputs, drops, nil, nil, false)
	if err == nil {
		t.Fatal("expected abort: survivors below the recovery threshold")
	}
	if elapsed := time.Since(start); elapsed > 20*time.Second {
		t.Errorf("abort took %v — server should fail fast on starved stages", elapsed)
	}
}
