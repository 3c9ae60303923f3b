package core

import (
	"sync"
	"testing"
	"time"

	"repro/internal/churn"
	"repro/internal/dh"
	"repro/internal/engine"
	"repro/internal/prg"
	"repro/internal/secagg"
	"repro/internal/secaggplus"
	"repro/internal/sessionstore"
	"repro/internal/transport"
)

// 64-client wire deployment runs a seeded churn trace in which one client
// is killed (session lost) and re-dialed before every round. Every
// churned round must downgrade to a partial resume naming exactly the
// churned client, complete with the full roster, and spend O(churned
// edges) of key agreement — at most 4 agreements per churned edge (two
// ends × the channel and mask key types), so ≈ 4·k in total against the
// full re-key's 2·n·(n−1). Run under -race in CI (churn step).
func TestWireChurnTracePerEdgeRekey(t *testing.T) {
	const n, rounds = 64, 4
	ids := seqIDs(n)
	rig := newServiceRig(t, ids, n/2+1, 8)
	// 64 clients each perform ~2(n−1) agreements concurrently in round 1;
	// under -race that far outruns the default stage budget. No client in
	// this trace legitimately misses a stage, so the deadlines are pure
	// laggard bounds — completion is arrival of all expected frames.
	rig.handshakeDeadline, rig.stageDeadline = 30*time.Second, 20*time.Second

	trace := churn.Generate(churn.TraceConfig{
		Seed: 7, Clients: ids, Rounds: rounds, RestartsPerRound: 1,
	})
	byRound := churn.ByRound(trace)

	hs, res := rig.round(1, nil)
	if hs.Resume {
		t.Fatal("round 1 resumed with no prior state")
	}
	rig.checkSum(res, ids)
	fullAgree := dh.AgreeCount()

	k := uint64(n - 1) // complete graph: every churned client has n-1 edges
	for round := uint64(2); round <= rounds; round++ {
		events := byRound[round]
		if len(events) != 1 || events[0].Kind != churn.Restart {
			t.Fatalf("trace round %d = %v, want one restart", round, events)
		}
		churned := events[0].Client
		rig.restartClient(churned, nil)

		gen0, agree0 := dh.GenerateCount(), dh.AgreeCount()
		hs, res := rig.round(round, nil)
		if !hs.Resume || !hs.Partial() {
			t.Fatalf("round %d = resume %v partial %v, want a partial resume", round, hs.Resume, hs.Partial())
		}
		if len(hs.Divergent) != 1 || hs.Divergent[0] != churned {
			t.Fatalf("round %d divergent = %v, want [%d]", round, hs.Divergent, churned)
		}
		rig.checkSum(res, ids)
		gen, agree := dh.GenerateCount()-gen0, dh.AgreeCount()-agree0
		if gen == 0 {
			t.Fatalf("round %d re-keyed client %d without generating keys", round, churned)
		}
		if agree > 4*k {
			t.Fatalf("round %d: %d agreements for one churned client, want ≤ %d (4 per churned edge)",
				round, agree, 4*k)
		}
		if agree*8 > fullAgree {
			t.Fatalf("round %d: churned-round agreements %d not clearly below full re-key %d",
				round, agree, fullAgree)
		}
	}
}

// TestWireReconnectMidRound pins the kill-and-redial path end to end: a
// client vanishes mid-round (before its masked upload) and re-dials
// immediately — its next-round hello lands while the server is still
// collecting the current round, so the engine must park it. The
// interrupted round completes without the client; the next handshake
// downgrades to a partial re-key of exactly its edges and the round
// completes with the full roster again. Run under -race in CI (churn
// step).
func TestWireReconnectMidRound(t *testing.T) {
	ids := []uint64{1, 2, 3, 4, 5}
	rig := newServiceRig(t, ids, 3, 16)
	rig.handshakeDeadline = 5 * time.Second
	rig.redialMidRound = map[uint64]bool{5: true}

	hs, res := rig.round(1, nil)
	if hs.Resume {
		t.Fatal("round 1 resumed with no prior state")
	}
	rig.checkSum(res, ids)

	// Round 2: client 5 is killed before its masked upload and re-dials
	// mid-round. The round must complete with the survivors.
	hs, res = rig.round(2, secagg.DropSchedule{5: secagg.StageMaskedInput})
	if !hs.Resume {
		t.Fatal("round 2 did not resume")
	}
	if len(res.Dropped) != 1 || res.Dropped[0] != 5 {
		t.Fatalf("round 2 dropped = %v, want [5]", res.Dropped)
	}
	rig.checkSum(res, []uint64{1, 2, 3, 4})

	// Round 3: the parked hello joins the handshake, which partially
	// re-keys just the bounced client's edges; everyone is back.
	agree0 := dh.AgreeCount()
	hs, res = rig.round(3, nil)
	if !hs.Partial() || len(hs.Divergent) != 1 || hs.Divergent[0] != 5 {
		t.Fatalf("round 3 = resume %v divergent %v, want partial re-key of [5]", hs.Resume, hs.Divergent)
	}
	rig.checkSum(res, ids)
	if agree := dh.AgreeCount() - agree0; agree > 4*uint64(len(ids)-1) {
		t.Fatalf("round 3 performed %d agreements, want O(churned edges)", agree)
	}
}

// TestWireChurnUnderFaults runs a seeded churn trace while every client
// uplink suffers injected faults — duplicated frames, bounded jitter, and
// a small drop probability — in lenient mode: a client whose round dies
// re-dials and rejoins, exactly like the dordis-node reconnect loop.
// Every round must complete on the server with the sum of its reported
// survivors; churn must degrade rounds, never abort them. Run under
// -race in CI (churn step).
func TestWireChurnUnderFaults(t *testing.T) {
	const n, rounds = 8, 5
	ids := seqIDs(n)
	rig := newServiceRig(t, ids, 4, 8)
	rig.lenient = true
	rig.handshakeDeadline, rig.stageDeadline = time.Second, 700*time.Millisecond
	rig.wrap = func(id uint64, c transport.ClientConn) transport.ClientConn {
		return transport.NewFaultInjector(transport.FaultConfig{
			DropProb: 0.01, DupProb: 0.3, DelayMax: 3 * time.Millisecond,
			Seed: prg.NewSeed([]byte{0x77, byte(id)}),
		}).WrapClient(c)
	}

	trace := churn.Generate(churn.TraceConfig{
		Seed: 99, Clients: ids, Rounds: rounds, RestartsPerRound: 1,
	})
	byRound := churn.ByRound(trace)

	for round := uint64(1); round <= rounds; round++ {
		for _, e := range byRound[round] {
			if e.Kind == churn.Restart {
				rig.restartClient(e.Client, nil)
			}
		}
		hs, res := rig.round(round, nil)
		rig.checkSum(res, res.Survivors)
		t.Logf("round %d: resume=%v divergent=%v survivors=%d dropped=%v",
			round, hs.Resume, hs.Divergent, len(res.Survivors), res.Dropped)
	}
}

// ackCorruptor flips a byte in this client's second ack (the first
// resumable handshake), so the server sees a malformed ack exactly while
// deciding a partial commit for other divergent members.
type ackCorruptor struct {
	transport.ClientConn
	mu   sync.Mutex
	acks int
}

func (c *ackCorruptor) Send(f transport.Frame) error {
	if f.Stage == engine.TagRoundAck {
		c.mu.Lock()
		c.acks++
		corrupt := c.acks == 2
		c.mu.Unlock()
		if corrupt && len(f.Payload) > 0 {
			p := append([]byte(nil), f.Payload...)
			p[0] ^= 0xFF
			f.Payload = p
		}
	}
	return c.ClientConn.Send(f)
}

// TestHandshakeDowngradeMalformedAck: client 2's round-2 ack is corrupted
// in flight while client 3 is independently divergent (killed and
// re-dialed), so the malformed ack lands mid-partial-commit decision. The
// server must fold the undecodable ack into the divergent subset — a
// refusal, not an abort — the round completes with the full roster, and
// round 3 converges back to a clean full resume. Run under -race in CI
// (churn step).
func TestHandshakeDowngradeMalformedAck(t *testing.T) {
	ids := []uint64{1, 2, 3, 4, 5}
	rig := newServiceRig(t, ids, 3, 16)
	rig.handshakeDeadline = 5 * time.Second
	rig.wrap = func(id uint64, c transport.ClientConn) transport.ClientConn {
		if id == 2 {
			return &ackCorruptor{ClientConn: c}
		}
		return c
	}

	hs, res := rig.round(1, nil)
	if hs.Resume {
		t.Fatal("round 1 resumed with no prior state")
	}
	rig.checkSum(res, ids)

	rig.restartClient(3, nil) // independent churn: the commit is partial regardless
	hs, res = rig.round(2, nil)
	if !hs.Partial() {
		t.Fatalf("round 2 = resume %v divergent %v, want partial", hs.Resume, hs.Divergent)
	}
	if len(hs.Divergent) != 2 || hs.Divergent[0] != 2 || hs.Divergent[1] != 3 {
		t.Fatalf("round 2 divergent = %v, want [2 3] (malformed ack + restart)", hs.Divergent)
	}
	rig.checkSum(res, ids)

	// Converged: the corrupted-ack client fully re-keyed itself under the
	// partial commit, so round 3 resumes cleanly for everyone.
	hs, res = rig.round(3, nil)
	if !hs.Resume || hs.Partial() {
		t.Fatalf("round 3 = resume %v divergent %v, want clean full resume", hs.Resume, hs.Divergent)
	}
	rig.checkSum(res, ids)
}

// commitGhost tears the connection down right after this client's second
// ack leaves: the server commits a resume this client never hears. The
// ack counter is shared across reconnect wrappers so the ghost fires
// exactly once in the client's lifetime.
type commitGhost struct {
	transport.ClientConn
	mu   *sync.Mutex
	acks *int
}

func (c *commitGhost) Send(f transport.Frame) error {
	err := c.ClientConn.Send(f)
	if f.Stage == engine.TagRoundAck {
		c.mu.Lock()
		*c.acks++
		kill := *c.acks == 2
		c.mu.Unlock()
		if kill {
			c.ClientConn.Close()
		}
	}
	return err
}

// TestHandshakeDowngradeRedialDuringCommit: client 2 vanishes between its
// ack and the server's commit — the server commits a full resume client 2
// never applies, so its ratchet high-water mark goes stale. The round
// completes without it; after the re-dial, the next handshake must catch
// the desync via the ratchet check and downgrade to a partial re-key of
// exactly that client, converging to a clean resume after. Run under
// -race in CI (churn step).
func TestHandshakeDowngradeRedialDuringCommit(t *testing.T) {
	ids := []uint64{1, 2, 3, 4, 5}
	rig := newServiceRig(t, ids, 3, 16)
	rig.lenient = true
	rig.handshakeDeadline, rig.stageDeadline = time.Second, 700*time.Millisecond
	var ghostMu sync.Mutex
	var ghostAcks int
	rig.wrap = func(id uint64, c transport.ClientConn) transport.ClientConn {
		if id == 2 {
			return &commitGhost{ClientConn: c, mu: &ghostMu, acks: &ghostAcks}
		}
		return c
	}

	hs, res := rig.round(1, nil)
	if hs.Resume {
		t.Fatal("round 1 resumed with no prior state")
	}
	rig.checkSum(res, ids)

	// Round 2: the server hears all acks and commits a full resume, but
	// client 2's connection died before the commit arrived. The round
	// completes without it.
	hs, res = rig.round(2, nil)
	if !hs.Resume || hs.Partial() {
		t.Fatalf("round 2 = resume %v divergent %v, want full resume", hs.Resume, hs.Divergent)
	}
	rig.checkSum(res, []uint64{1, 3, 4, 5})

	// Round 3: client 2 is back on a fresh connection with a stale ratchet
	// high-water mark; the handshake must repair exactly its edges.
	hs, res = rig.round(3, nil)
	if !hs.Partial() || len(hs.Divergent) != 1 || hs.Divergent[0] != 2 {
		t.Fatalf("round 3 = resume %v divergent %v, want partial re-key of [2]", hs.Resume, hs.Divergent)
	}
	rig.checkSum(res, ids)

	// Converged.
	hs, res = rig.round(4, nil)
	if !hs.Resume || hs.Partial() {
		t.Fatalf("round 4 = resume %v divergent %v, want clean full resume", hs.Resume, hs.Divergent)
	}
	rig.checkSum(res, ids)
}

// TestHandshakeDowngradeStoreDecryptFailure: a client persists its
// session but the store key rotates underneath it (wrong
// -session-key-file, tampered record) — restore fails, the client starts
// fresh exactly as the dordis-node fallback does, and the next handshake
// downgrades to a partial re-key of that client's edges. Run under -race
// in CI (churn step).
func TestHandshakeDowngradeStoreDecryptFailure(t *testing.T) {
	ids := []uint64{1, 2, 3, 4, 5}
	rig := newServiceRig(t, ids, 3, 16)
	rig.handshakeDeadline = 5 * time.Second

	hs, res := rig.round(1, nil)
	if hs.Resume {
		t.Fatal("round 1 resumed with no prior state")
	}
	rig.checkSum(res, ids)

	// Client 4 persists its session, then "restarts" into a store opened
	// with a rotated key: decryption fails and the restore path must fall
	// back to a fresh session instead of a corrupt one.
	dir := t.TempDir()
	store, err := sessionstore.Open(dir, sessionstore.DeriveKey([]byte("key v1")))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := rig.clientSess[4].MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save("client-4", blob); err != nil {
		t.Fatal(err)
	}
	rotated, err := sessionstore.Open(dir, sessionstore.DeriveKey([]byte("key v2")))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rotated.Load("client-4"); err == nil {
		t.Fatal("rotated store key decrypted the session record")
	}
	rig.restartClient(4, nil)

	hs, res = rig.round(2, nil)
	if !hs.Partial() || len(hs.Divergent) != 1 || hs.Divergent[0] != 4 {
		t.Fatalf("round 2 = resume %v divergent %v, want partial re-key of [4]", hs.Resume, hs.Divergent)
	}
	rig.checkSum(res, ids)

	hs, res = rig.round(3, nil)
	if !hs.Resume || hs.Partial() {
		t.Fatalf("round 3 = resume %v divergent %v, want clean full resume", hs.Resume, hs.Divergent)
	}
	rig.checkSum(res, ids)
}

// TestWireSecAggPlusUnmaskCohortQuorum pins the per-cohort unmask quorum
// on a SecAgg+ sparse graph: with one straggler never sending its unmask
// response, the stage must seal the moment every reconstruction cohort
// holds t shares — well before the stage deadline the old all-of-N
// collection would have waited out. Run under -race in CI (churn step).
func TestWireSecAggPlusUnmaskCohortQuorum(t *testing.T) {
	saCfg, err := secaggplus.NewConfig(secagg.Config{ClientIDs: seqIDs(8), Threshold: 3, Bits: 20, Dim: 16}, 4)
	if err != nil {
		t.Fatal(err)
	}
	const deadline = 3 * time.Second
	rig := newWireRig(t, "memory", saCfg)
	rig.lenient, rig.stageDeadline = true, deadline
	start := time.Now()
	// The straggler: alive through consistency, silent at unmask.
	_, res := rig.round(21, secagg.DropSchedule{8: secagg.StageUnmasking})
	elapsed := time.Since(start)
	// The straggler reached U3, so its input is in the sum and every
	// self-seed cohort (including its own) filled from its neighbors.
	rig.checkSum(res, saCfg.ClientIDs)
	if elapsed >= 2*deadline/3 {
		t.Fatalf("round took %v — the cohort quorum should seal the unmask stage well before the %v deadline", elapsed, deadline)
	}
}
