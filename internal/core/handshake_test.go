package core

import (
	"context"
	"crypto/rand"
	"errors"
	"testing"
	"time"

	"repro/internal/dh"
	"repro/internal/engine"
	"repro/internal/secagg"
	"repro/internal/sessionstore"
	"repro/internal/sig"
	"repro/internal/transport"
)

// --- handshake signatures (the codec itself is TestCodecConformance/handshake) ---

func TestHandshakeCodecRejectsForgeries(t *testing.T) {
	signer, _ := sig.NewSigner(rand.Reader)
	other, _ := sig.NewSigner(rand.Reader)
	offer := RoundOffer{Round: 1, Protocol: ProtocolSecAgg, Resume: true, Ratchet: 1}

	// Unsigned offer rejected when a server key is pinned, accepted without.
	unsigned := encodeRoundOffer(offer, nil)
	if _, err := decodeRoundOffer(unsigned, signer.Public()); err == nil {
		t.Fatal("unsigned offer accepted under a pinned server key")
	}
	if _, err := decodeRoundOffer(unsigned, nil); err != nil {
		t.Fatalf("unsigned offer rejected in semi-honest mode: %v", err)
	}

	// Wrong signer rejected.
	forged := encodeRoundOffer(offer, other)
	if _, err := decodeRoundOffer(forged, signer.Public()); err == nil {
		t.Fatal("offer signed by the wrong key accepted")
	}

	// A flipped body bit invalidates the signature.
	good := encodeRoundOffer(offer, signer)
	flipped := append([]byte(nil), good...)
	flipped[3] ^= 1 // round number
	if _, err := decodeRoundOffer(flipped, signer.Public()); err == nil {
		t.Fatal("offer with tampered body accepted")
	}

	// Same for commits.
	commit := encodeRoundCommit(RoundCommit{Round: 1, Resume: true, Ratchet: 1}, signer)
	badCommit := append([]byte(nil), commit...)
	badCommit[11] ^= 1 // resume flag
	if _, err := decodeRoundCommit(badCommit, signer.Public()); err == nil {
		t.Fatal("commit with tampered body accepted")
	}
}

// --- wire restart-resume lifecycle ---

// TestWireRestartResume is the acceptance path of the continuity
// subsystem: a wire deployment runs a round, every client persists its
// session through the AEAD store and "restarts" (all in-memory state
// discarded), and the next handshake resumes the key generation — the
// restarted round performs zero X25519 key generations and zero
// agreements, asserted against the process-wide dh counters. A later
// mid-round dropout taints the generation on both sides and the next
// handshake downgrades to a clean re-key.
func TestWireRestartResume(t *testing.T) {
	ids := []uint64{1, 2, 3, 4, 5}
	rig := newServiceRig(t, ids, 3, 32)
	rig.stageDeadline = 500 * time.Millisecond
	store, err := sessionstore.Open(t.TempDir(), sessionstore.DeriveKey([]byte("restart-resume test")))
	if err != nil {
		t.Fatal(err)
	}

	// Round 1: no shared state yet — the handshake must re-key.
	hs, res := rig.round(1, nil)
	if hs.Resume {
		t.Fatal("round 1 resumed with no prior state")
	}
	rig.checkSum(res, ids)

	// A fleet-wide client restart: every session goes through the store
	// and the live ones are dropped.
	for _, id := range ids {
		rig.restartClient(id, store)
	}

	// Round 2: resumed on the restored sessions with zero key work.
	gen0, agree0 := dh.GenerateCount(), dh.AgreeCount()
	hs, res = rig.round(2, nil)
	if !hs.Resume {
		t.Fatal("round 2 did not resume on restored sessions")
	}
	if hs.Ratchet != 1 {
		t.Fatalf("round 2 ratchet = %d, want 1", hs.Ratchet)
	}
	rig.checkSum(res, ids)
	if g, a := dh.GenerateCount()-gen0, dh.AgreeCount()-agree0; g != 0 || a != 0 {
		t.Fatalf("restart-resumed round performed key work: %d generations, %d agreements", g, a)
	}

	// Round 3: client 5 vanishes before its masked upload. The round still
	// resumes (the taint is only observed mid-round) and completes without
	// it; the server reconstructs 5's mask key and taints the generation.
	hs, res = rig.round(3, secagg.DropSchedule{5: secagg.StageMaskedInput})
	if !hs.Resume {
		t.Fatal("round 3 did not resume")
	}
	rig.checkSum(res, []uint64{1, 2, 3, 4})
	if len(res.Dropped) != 1 || res.Dropped[0] != 5 {
		t.Fatalf("round 3 dropped = %v, want [5]", res.Dropped)
	}
	if len(rig.serverSess.TaintedMembers()) == 0 {
		t.Fatal("server session not tainted after reconstructing a dropper's key")
	}
	if !rig.clientSess[5].Tainted() {
		t.Fatal("dropped client's session not tainted")
	}

	// Round 4: the dropout downgrades the next handshake to a *partial*
	// re-key — only the tainted client (5) is divergent, everyone else
	// keeps cached secrets — and the round completes with everyone back.
	gen0, agree0 = dh.GenerateCount(), dh.AgreeCount()
	hs, res = rig.round(4, nil)
	if !hs.Resume || !hs.Partial() {
		t.Fatalf("round 4 handshake = resume %v partial %v, want a partial resume", hs.Resume, hs.Partial())
	}
	if len(hs.Divergent) != 1 || hs.Divergent[0] != 5 {
		t.Fatalf("round 4 divergent set = %v, want [5]", hs.Divergent)
	}
	rig.checkSum(res, ids)
	gen, agree := dh.GenerateCount()-gen0, dh.AgreeCount()-agree0
	if gen == 0 {
		t.Fatal("partially re-keyed round generated no fresh keys for the divergent client")
	}
	// Key work stays proportional to the churned edges: the divergent
	// client agrees with each of its n-1 peers and each peer answers, on
	// both the channel and mask edges — nowhere near the full re-key's
	// 2·n·(n-1) agreements.
	n := uint64(len(ids))
	if maxAgree := 4 * (n - 1); agree > maxAgree {
		t.Fatalf("partial re-key performed %d agreements, want ≤ %d (full re-key ≈ %d)",
			agree, maxAgree, 2*n*(n-1))
	}

	// Round 5: the repaired generation resumes in full again — the taint
	// was cleared by the partial re-key.
	gen0, agree0 = dh.GenerateCount(), dh.AgreeCount()
	hs, res = rig.round(5, nil)
	if !hs.Resume {
		t.Fatal("round 5 did not resume after the re-key")
	}
	rig.checkSum(res, ids)
	if g, a := dh.GenerateCount()-gen0, dh.AgreeCount()-agree0; g != 0 || a != 0 {
		t.Fatalf("resumed round 5 performed key work: %d generations, %d agreements", g, a)
	}
}

// TestHandshakeKeyRoundsBudget pins the lifetime bound: with KeyRounds=2 a
// generation serves its re-key round plus exactly one resumed round, then
// the next handshake re-keys even though nothing diverged.
func TestHandshakeKeyRoundsBudget(t *testing.T) {
	rig := newServiceRig(t, []uint64{1, 2, 3}, 2, 16)
	rig.keyRounds, rig.stageDeadline = 2, 500*time.Millisecond
	want := []bool{false, true, false, true} // rekey, resume, budget exhausted, resume
	for i, wantResume := range want {
		hs, _ := rig.round(uint64(i+1), nil)
		if hs.Resume != wantResume {
			t.Fatalf("round %d resume = %v, want %v", i+1, hs.Resume, wantResume)
		}
	}
}

// TestHandshakeRefusesLightSecAgg: the wire speaks the SecAgg family
// only. An offer carrying LightSecAgg's protocol byte fails to decode,
// and either side refuses a config naming it before it sends a frame —
// each with ErrProtocolNotOnWire.
func TestHandshakeRefusesLightSecAgg(t *testing.T) {
	p := encodeRoundOffer(RoundOffer{Round: 1, Protocol: ProtocolLightSecAgg}, nil)
	if _, err := decodeRoundOffer(p, nil); !errors.Is(err, ErrProtocolNotOnWire) {
		t.Errorf("offer for lightsecagg: got %v, want ErrProtocolNotOnWire", err)
	}

	// One link per side, so each side's silence is observed on its own.
	link := func() (*transport.MemoryNetwork, transport.ClientConn) {
		net := transport.NewMemoryNetwork(8)
		conn, err := net.Connect(1)
		if err != nil {
			t.Fatal(err)
		}
		return net, conn
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	quiet := func(recv func(context.Context) (transport.Frame, error)) bool {
		qctx, stop := context.WithTimeout(ctx, 50*time.Millisecond)
		defer stop()
		_, err := recv(qctx)
		return err != nil
	}

	clientNet, conn := link()
	sess, err := secagg.NewSession(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunHandshakeClient(ctx, ClientHandshakeConfig{ID: 1, Protocol: ProtocolLightSecAgg}, sess, conn)
	if !errors.Is(err, ErrProtocolNotOnWire) {
		t.Errorf("client: got %v, want ErrProtocolNotOnWire", err)
	}
	if !quiet(clientNet.Server().Recv) {
		t.Error("the client sent a frame before refusing")
	}

	serverNet, conn := link()
	eng := engine.New(engine.TransportSource(ctx, serverNet.Server()))
	_, err = RunHandshakeServer(ctx, HandshakeConfig{Round: 1, Protocol: ProtocolLightSecAgg, ClientIDs: []uint64{1}},
		secagg.NewServerSession(), eng, serverNet.Server())
	if !errors.Is(err, ErrProtocolNotOnWire) {
		t.Errorf("server: got %v, want ErrProtocolNotOnWire", err)
	}
	if !quiet(conn.Recv) {
		t.Error("the server sent a frame before refusing")
	}
}
