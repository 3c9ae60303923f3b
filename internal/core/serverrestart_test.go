package core

import (
	"testing"
	"time"

	"repro/internal/dh"
	"repro/internal/secagg"
	"repro/internal/sessionstore"
)

// TestWireServerRestartResume mirrors TestWireRestartResume from the
// aggregator's side: the *server* persists its session (roster, taint and
// ratchet mark — never reconstructed keys), restarts, and the fleet keeps
// resuming. A taint picked up before the restart survives it, so the
// post-restart handshake downgrades to a per-edge re-key of exactly the
// tainted client instead of a full fleet re-key. A server that restarts
// WITHOUT the store forces the full re-key — the contrast that makes the
// persistence worth shipping.
func TestWireServerRestartResume(t *testing.T) {
	ids := []uint64{1, 2, 3, 4, 5}
	rig := newServiceRig(t, ids, 3, 32)
	rig.stageDeadline = 500 * time.Millisecond
	store, err := sessionstore.Open(t.TempDir(), sessionstore.DeriveKey([]byte("server-restart test")))
	if err != nil {
		t.Fatal(err)
	}

	// Round 1: no shared state yet — the handshake re-keys.
	hs, res := rig.round(1, nil)
	if hs.Resume {
		t.Fatal("round 1 resumed with no prior state")
	}
	rig.checkSum(res, ids)

	// The aggregator restarts with its session persisted. The clients keep
	// their live sessions — only the server's memory is wiped.
	rig.restartServer(store)

	// Round 2: the restored roster answers the clients' state hash, so the
	// fleet resumes with zero key work on either side.
	gen0, agree0 := dh.GenerateCount(), dh.AgreeCount()
	hs, res = rig.round(2, nil)
	if !hs.Resume || hs.Partial() {
		t.Fatalf("round 2 handshake = resume %v partial %v, want a full resume", hs.Resume, hs.Partial())
	}
	if hs.Ratchet != 1 {
		t.Fatalf("round 2 ratchet = %d, want 1 (restart must not rewind the ratchet mark)", hs.Ratchet)
	}
	rig.checkSum(res, ids)
	if g, a := dh.GenerateCount()-gen0, dh.AgreeCount()-agree0; g != 0 || a != 0 {
		t.Fatalf("server-restarted round performed key work: %d generations, %d agreements", g, a)
	}

	// Round 3: client 5 vanishes mid-round; the server reconstructs its
	// mask key and taints the generation.
	hs, res = rig.round(3, secagg.DropSchedule{5: secagg.StageMaskedInput})
	if !hs.Resume {
		t.Fatal("round 3 did not resume")
	}
	rig.checkSum(res, []uint64{1, 2, 3, 4})
	if len(rig.serverSess.TaintedMembers()) == 0 {
		t.Fatal("server session not tainted after reconstructing a dropper's key")
	}

	// The aggregator restarts again — now with taint on the books. The
	// restored session must carry the taint (else the restart would
	// silently forget a key reconstruction) while its reconstructed-key
	// cache comes back empty.
	rig.restartServer(store)
	if members := rig.serverSess.TaintedMembers(); len(members) != 1 || members[0] != 5 {
		t.Fatalf("restored taint set = %v, want [5]", members)
	}

	// Round 4: the surviving taint downgrades the handshake to a partial
	// re-key of exactly client 5's edges — not a full fleet re-key.
	gen0, agree0 = dh.GenerateCount(), dh.AgreeCount()
	hs, res = rig.round(4, nil)
	if !hs.Resume || !hs.Partial() {
		t.Fatalf("round 4 handshake = resume %v partial %v, want a partial resume", hs.Resume, hs.Partial())
	}
	if len(hs.Divergent) != 1 || hs.Divergent[0] != 5 {
		t.Fatalf("round 4 divergent set = %v, want [5]", hs.Divergent)
	}
	rig.checkSum(res, ids)
	n := uint64(len(ids))
	if agree := dh.AgreeCount() - agree0; agree > 4*(n-1) {
		t.Fatalf("post-restart partial re-key performed %d agreements, want ≤ %d (full re-key ≈ %d)",
			agree, 4*(n-1), 2*n*(n-1))
	}

	// Round 5: the repaired generation resumes in full again.
	gen0, agree0 = dh.GenerateCount(), dh.AgreeCount()
	hs, res = rig.round(5, nil)
	if !hs.Resume {
		t.Fatal("round 5 did not resume after the re-key")
	}
	rig.checkSum(res, ids)
	if g, a := dh.GenerateCount()-gen0, dh.AgreeCount()-agree0; g != 0 || a != 0 {
		t.Fatalf("resumed round 5 performed key work: %d generations, %d agreements", g, a)
	}

	// Contrast: a restart without the store (fresh server session) has no
	// roster to answer the state hash, so the fleet pays a full re-key.
	rig.serverSess = secagg.NewServerSession()
	hs, res = rig.round(6, nil)
	if hs.Resume {
		t.Fatal("round 6 resumed against an amnesiac server")
	}
	rig.checkSum(res, ids)
}
