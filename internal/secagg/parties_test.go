package secagg

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"repro/internal/engine"
)

// TestKeptPartiesIsolateSubRounds: RunWithSessions keeps one server and
// one client per id on its sessions and re-aims them every sub-round. Each
// sub-round starts from empty stage maps and empty ClientRounds and sums
// exactly, and what the parent refused is refused still: a drop schedule
// changed within a ratchet step (ErrConflictingReveal), a share upload
// doctored in sub-round 1 — which the server routes afresh instead of
// handing out its kept deliveries — (ErrDealMismatch at its recipient),
// and an overlapping mask window (ErrWindowServed).
func TestKeptPartiesIsolateSubRounds(t *testing.T) {
	const n, dim = 6, 16
	cfg, inputs, drops := sessionRoundConfig(n, dim) // client n drops before its masked input
	rand := sessionRand("kept-parties")
	newSessions := func() *RoundSessions {
		t.Helper()
		sess, err := NewRoundSessions(cfg.ClientIDs, rand)
		if err != nil {
			t.Fatal(err)
		}
		return sess
	}
	at := func(sess *RoundSessions, epoch uint64, drops DropSchedule) (*RunResult, error) {
		c := cfg
		c.MaskEpoch = epoch
		return RunWithSessions(c, inputs, nil, drops, rand, sess)
	}

	t.Run("each sub-round starts empty and sums exactly", func(t *testing.T) {
		sess := newSessions()
		var first *RunResult
		var routed *EncryptedShareMsg // the first list's first entry of epoch 0's deliveries
		for epoch := uint64(0); epoch < 4; epoch++ {
			if epoch > 0 {
				// Aim the kept parties as the next sub-round will.
				p, next := sess.kept, cfg
				next.MaskEpoch = epoch
				err := p.aim(next, sess.Server, inputs, nil, engine.SharedReader(rand),
					func(id uint64) *Session { return sess.Client[id] }, true)
				if err != nil {
					t.Fatal(err)
				}
				checkAimed(t, p)
			}
			rr, err := at(sess, epoch, drops)
			if err != nil {
				t.Fatalf("epoch %d: %v", epoch, err)
			}
			checkSessionSum(t, rr.Result, n)
			delivered := &sess.Server.routed.deliveries[1][0]
			if first == nil {
				first, routed = rr, delivered
				continue
			}
			if rr.Server != first.Server || rr.Clients[1] != first.Clients[1] {
				t.Fatalf("epoch %d built new parties", epoch)
			}
			if delivered != routed {
				t.Fatalf("epoch %d routed its byte-equal uploads again", epoch)
			}
		}
	})

	t.Run("a drop schedule changed within a step", func(t *testing.T) {
		sess := newSessions()
		if _, err := at(sess, 0, drops); err != nil {
			t.Fatal(err)
		}
		// Client n uploads now: its peers would reveal shares of its self
		// seed after shares of its mask key.
		if _, err := at(sess, 1, nil); !errors.Is(err, ErrConflictingReveal) {
			t.Fatalf("epoch 1 naming dropped client %d live: %v, want ErrConflictingReveal", n, err)
		}
	})

	t.Run("a doctored share upload", func(t *testing.T) {
		sess := newSessions()
		if _, err := at(sess, 0, drops); err != nil {
			t.Fatal(err)
		}
		d := sess.Client[2].deal
		doctored := slices.Clone(d.out)
		doctored[0].Ciphertext = slices.Clone(doctored[0].Ciphertext)
		doctored[0].Ciphertext[0] ^= 1
		d.out = doctored
		if _, err := at(sess, 1, drops); !errors.Is(err, ErrDealMismatch) {
			t.Fatalf("epoch 1 with client 2's upload to %d doctored: %v, want ErrDealMismatch", doctored[0].To, err)
		}
	})

	t.Run("an overlapping window", func(t *testing.T) {
		sess := newSessions()
		for _, epoch := range []uint64{0, 1} {
			if _, err := at(sess, epoch, drops); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := at(sess, 1, drops); !errors.Is(err, ErrWindowServed) {
			t.Fatalf("epoch 1 again: %v, want ErrWindowServed", err)
		}
		rr, err := at(sess, 2, drops)
		if err != nil {
			t.Fatal(err)
		}
		checkSessionSum(t, rr.Result, n)
	})
}

// checkAimed fails unless p holds nothing of its last sub-round: every
// map of the server and of each client is empty or nil, the server's
// per-round vectors and routing are gone, each client's round state is
// unset and every ClientRound and the ServerRound are zero.
func checkAimed(t *testing.T, p *parties) {
	t.Helper()
	emptyMaps(t, "server", p.server)
	s := p.server
	if s.maskedSum.Data != nil || s.sum.Data != nil || s.kept != nil || len(s.uploads) != 0 ||
		s.u1 != nil || s.u2 != nil || s.u3 != nil || s.u4 != nil || s.u5 != nil || s.cohortShort != 0 {
		t.Fatal("the aimed server kept per-round state")
	}
	for i, c := range p.order {
		emptyMaps(t, "client", c)
		if c.deal != nil || c.roster != nil || c.u2 != nil || c.u3 != nil || c.cipherKey != nil ||
			c.maskKey != nil || c.selfStream != nil || c.bundles != nil || c.hasMaskedDigest {
			t.Fatalf("aimed client %d kept per-round state", c.id)
		}
		if !reflect.ValueOf(p.rounds[i]).IsZero() {
			t.Fatalf("client %d's ClientRound is not empty", c.id)
		}
	}
	if !reflect.ValueOf(p.round).IsZero() {
		t.Fatal("the ServerRound is not empty")
	}
}

// emptyMaps fails on every map field of *v that holds an entry.
func emptyMaps(t *testing.T, what string, v any) {
	t.Helper()
	rv := reflect.ValueOf(v).Elem()
	for i := range rv.NumField() {
		if f := rv.Field(i); f.Kind() == reflect.Map && f.Len() != 0 {
			t.Errorf("%s.%s holds %d entries at the sub-round's start", what, rv.Type().Field(i).Name, f.Len())
		}
	}
}
