package core

import (
	"context"
	"crypto/rand"
	"testing"
	"time"

	"repro/internal/secagg"
	"repro/internal/sig"
	"repro/internal/transcript"
)

// TestTranscriptWireVerifyTCP is the flat-deployment acceptance test for
// the verifiable-transcript layer: a round over real TCP in which every
// surviving client receives the signed round commitment plus its own
// inclusion proof and verifies both before its round returns. A client
// that dropped mid-round gets no proof and audits nothing. Run under
// -race in CI (transcript step).
func TestTranscriptWireVerifyTCP(t *testing.T) {
	rig := newWireRig(t, "tcp", secagg.Config{ClientIDs: []uint64{1, 2, 3, 4, 5}, Threshold: 3, Bits: 16, Dim: 16})
	rig.transcripts()
	_, res := rig.round(41, secagg.DropSchedule{4: secagg.StageMaskedInput})

	survivors := []uint64{1, 2, 3, 5}
	if len(res.Survivors) != len(survivors) {
		t.Fatalf("survivors = %v, want %v", res.Survivors, survivors)
	}
	rig.checkSum(res, survivors)
	tip, ok := rig.recorder.Tip()
	if !ok {
		t.Fatal("server recorder has no chain tip after the round")
	}
	for _, id := range survivors {
		h := rig.auditors[id].History()
		if len(h) != 1 {
			t.Fatalf("client %d audited %d rounds, want 1", id, len(h))
		}
		if h[0].Round != 41 {
			t.Fatalf("client %d audited round %d, want 41", id, h[0].Round)
		}
		if h[0].Root != tip {
			t.Fatalf("client %d verified root diverges from the server's chain tip", id)
		}
	}
	if h := rig.auditors[4].History(); len(h) != 0 {
		t.Fatalf("dropped client audited %d rounds, want 0", len(h))
	}
}

// TestTranscriptWireWrongKeyFailsRound pins the failure mode over the
// wire: a client whose auditor pins the wrong server key must fail its
// round with ErrBadSignature — a round whose transcript the client cannot
// verify is not a clean completion — while everyone else completes.
func TestTranscriptWireWrongKeyFailsRound(t *testing.T) {
	wrong, err := sig.NewSigner(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	rig := newWireRig(t, "memory", secagg.Config{ClientIDs: []uint64{1, 2, 3}, Threshold: 2, Bits: 16, Dim: 8})
	rig.transcripts()
	rig.auditors[3] = transcript.NewAuditor(wrong.Public())
	rig.wantErr = map[uint64]error{3: transcript.ErrBadSignature}
	rig.round(42, nil)
}

// TestTranscriptChainAuditRestartRekey is the multi-round acceptance
// test: three chained rounds in which the aggregator restarts between
// rounds 1 and 2 (chain persisted through MarshalBinary/UnmarshalRecorder,
// so the restarted server keeps extending the same history) and a client
// restarts between rounds 2 and 3 (downgrading round 3 to a per-edge
// partial re-key of exactly that client). Every surviving auditor must
// hold three chained roots agreeing with the server's tip; the restarted
// client re-joins the chain from its divergent round. Run under -race in
// CI (transcript step).
func TestTranscriptChainAuditRestartRekey(t *testing.T) {
	ids := []uint64{1, 2, 3, 4, 5}
	rig := newServiceRig(t, ids, 3, 8)
	rig.transcripts()
	rig.handshakeDeadline, rig.stageDeadline = 10*time.Second, 5*time.Second

	// Round 1: no shared state — full re-key, first chain link.
	hs, res := rig.round(1, nil)
	if hs.Resume {
		t.Fatal("round 1 resumed with no prior state")
	}
	rig.checkSum(res, ids)
	tip1, ok := rig.recorder.Tip()
	if !ok {
		t.Fatal("no chain tip after round 1")
	}

	// The aggregator restarts; the persisted chain must keep the roots
	// linking across the gap.
	rig.restartServer(nil)

	// Round 2: full resume (the restored session answers the state hash),
	// and the new root chains to round 1's.
	hs, res = rig.round(2, nil)
	if !hs.Resume || hs.Partial() {
		t.Fatalf("round 2 = resume %v partial %v, want a full resume", hs.Resume, hs.Partial())
	}
	rig.checkSum(res, ids)

	// Client 5 process-restarts: session and audit history both lost.
	rig.restartClient(5, nil)

	// Round 3: per-edge partial re-key of exactly the churned client.
	hs, res = rig.round(3, nil)
	if !hs.Partial() || len(hs.Divergent) != 1 || hs.Divergent[0] != 5 {
		t.Fatalf("round 3 = resume %v divergent %v, want a partial re-key of [5]", hs.Resume, hs.Divergent)
	}
	rig.checkSum(res, ids)

	// Audit: clients 1-4 hold three chained roots (chain continuity was
	// enforced by each VerifyRound), starting at the round-1 tip, with
	// strictly increasing rounds, and all agreeing with each other.
	ref := rig.auditors[1].History()
	if len(ref) != 3 {
		t.Fatalf("client 1 audited %d rounds, want 3", len(ref))
	}
	if ref[0].Root != tip1 {
		t.Fatal("client 1 round-1 root diverges from the pre-restart server tip")
	}
	for i := 1; i < len(ref); i++ {
		if ref[i].Round <= ref[i-1].Round {
			t.Fatalf("audit history rounds not increasing: %+v", ref)
		}
	}
	for _, id := range []uint64{2, 3, 4} {
		h := rig.auditors[id].History()
		if len(h) != 3 {
			t.Fatalf("client %d audited %d rounds, want 3", id, len(h))
		}
		for i := range h {
			if h[i] != ref[i] {
				t.Fatalf("client %d history[%d] = %+v, client 1 saw %+v", id, i, h[i], ref[i])
			}
		}
	}
	// The restarted client audits only the round it rejoined, and it
	// verified the same root everyone else did.
	h5 := rig.auditors[5].History()
	if len(h5) != 1 || h5[0] != ref[2] {
		t.Fatalf("restarted client history = %+v, want exactly %+v", h5, ref[2])
	}
	// The server's post-restart tip is the last audited root.
	tip, _ := rig.recorder.Tip()
	if tip != ref[2].Root {
		t.Fatal("server chain tip diverges from the audited round-3 root")
	}
}

// TestTranscriptMissingTierBoundedWait pins the liveness contract of the
// post-result audit: the wait for transcript frames is bounded by
// TranscriptDeadline. A shard whose partial misses the combiner's quorum
// holds no place in the fold, so no combiner-tier proof ever reaches its
// clients — they must fail the audit loudly (their contribution is NOT in
// the global aggregate) instead of hanging the round, which is exactly
// what an unbounded wait did to shardtest when one shard missed quorum.
func TestTranscriptMissingTierBoundedWait(t *testing.T) {
	rig := newWireRig(t, "memory", secagg.Config{ClientIDs: []uint64{1, 2, 3}, Threshold: 2, Bits: 16, Dim: 8})
	rig.transcripts()
	rig.tiers = make(map[uint64]*transcript.CombineAuditor)
	rig.wantErr = make(map[uint64]error)
	for _, id := range rig.cfg.ClientIDs {
		rig.tiers[id] = transcript.NewCombineAuditor(rig.signer.Public())
		rig.wantErr[id] = context.DeadlineExceeded
	}
	// The server sends the tier-1 frames but, like a shard whose partial
	// missed the fold, never relays a combiner tier.
	rig.configure = func(c *WireClientConfig) { c.TranscriptDeadline = 500 * time.Millisecond }
	rig.round(43, nil)
	// Tier 1 verified before the bounded wait expired; tier 2 never did.
	for id, aud := range rig.auditors {
		if len(aud.History()) != 1 {
			t.Errorf("client %d tier-1 history = %d rounds, want 1", id, len(aud.History()))
		}
		if len(rig.tiers[id].History()) != 0 {
			t.Errorf("client %d tier-2 history = %d rounds, want 0", id, len(rig.tiers[id].History()))
		}
	}
}

// TestTranscriptTwoTierShardedVerify is the sharded acceptance test: two
// shard aggregators each run a transcripted round, their roots ride the
// partials into the combiner's tree, and every client verifies BOTH tiers
// — its own inclusion in the shard transcript, then the shard root's
// inclusion in the combiner-signed tier commitment relayed back down.
func TestTranscriptTwoTierShardedVerify(t *testing.T) {
	rig := newShardedRig(t, seqIDs(8), 2, secagg.Config{Threshold: 3, Bits: 16, Dim: 8})
	rig.transcripts()
	rig.clean(71, nil)
	combTip, ok := rig.recorder.Tip()
	if !ok {
		t.Fatal("combiner recorder has no tip")
	}
	for s, sh := range rig.shards {
		shardTip, ok := sh.recorder.Tip()
		if !ok {
			t.Fatalf("shard %d recorder has no tip", s)
		}
		for id, aud := range sh.auditors {
			if h := aud.History(); len(h) != 1 || h[0].Root != shardTip {
				t.Fatalf("shard %d client %d tier-1 history = %+v, want the shard tip", s, id, h)
			}
			if h := sh.tiers[id].History(); len(h) != 1 || h[0].Root != combTip {
				t.Fatalf("shard %d client %d tier-2 history = %+v, want the combiner tip", s, id, h)
			}
		}
	}
}
