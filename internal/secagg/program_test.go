package secagg

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/engine"
)

// TestResumeRows: the caller's resume decision is rows of the two tables.
// A resumed server expects only the divergent members at stage 0 and seals
// them with the session's cached roster — silently on a full resume,
// broadcasting the merged roster on a partial one. A client that keeps
// its keys sends nothing at stage 0; a fully resumed one awaits nothing at
// stage 1 and shares keys against its cached roster. A resume with no
// cached roster fails on either side.
func TestResumeRows(t *testing.T) {
	const n, dim = 5, 32
	cfg, inputs, _ := sessionRoundConfig(n, dim)
	rand := sessionRand("resume-rows")
	sess, err := NewRoundSessions(cfg.ClientIDs, rand)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunWithSessions(cfg, inputs, nil, nil, rand, sess); err != nil {
		t.Fatal(err)
	}
	next := cfg
	next.MaskEpoch = 1
	client := func(id uint64, s *Session) *Client {
		c, err := newClient(next, id, inputs[id], nil, rand, s)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	t.Run("server expects", func(t *testing.T) {
		for _, tc := range []struct {
			resume    bool
			divergent []uint64
			want      []uint64
		}{
			{false, nil, cfg.ClientIDs},
			{true, nil, nil},
			{true, []uint64{3}, []uint64{3}},
		} {
			p := newServer(next, sess.Server).Program(new(ServerRound), tc.resume, tc.divergent)
			if !slices.Equal(p.Roster, tc.want) {
				t.Errorf("resume %v divergent %v: stage 0 expects %v, want %v", tc.resume, tc.divergent, p.Roster, tc.want)
			}
		}
	})

	t.Run("full resume seals silently", func(t *testing.T) {
		var round ServerRound
		p := newServer(next, sess.Server).Program(&round, true, nil)
		out, err := p.Steps[0].Seal()
		if err != nil {
			t.Fatal(err)
		}
		if out.Tag != engine.NoTag || !slices.Equal(out.To, cfg.ClientIDs) || len(round.Roster) != n {
			t.Fatalf("seal = tag %d to %v, roster of %d; want a silent seal naming all %d", out.Tag, out.To, len(round.Roster), n)
		}
	})

	t.Run("client keeps its keys", func(t *testing.T) {
		for _, divergent := range [][]uint64{nil, {3}} {
			var round ClientRound
			p := client(1, sess.Client[1]).Program(&round, true, divergent)
			if st := p.Steps[0]; st.Await != engine.NoTag || st.Send != engine.NoTag {
				t.Errorf("divergent %v: stage 0 awaits %d, sends %d; want neither", divergent, st.Await, st.Send)
			}
			if out, err := p.Steps[0].Do(nil); out != nil || err != nil {
				t.Errorf("divergent %v: stage 0 = %v, %v; want nothing", divergent, out, err)
			}
			wantAwait := TagRoster
			if divergent == nil {
				wantAwait = engine.NoTag
			}
			if p.Steps[1].Await != wantAwait {
				t.Errorf("divergent %v: stage 1 awaits %d, want %d", divergent, p.Steps[1].Await, wantAwait)
			}
		}
		var round ClientRound
		p := client(1, sess.Client[1]).Program(&round, true, nil)
		out, err := p.Steps[1].Do(nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(out.([]EncryptedShareMsg)) == 0 || len(round.Roster) != n {
			t.Fatalf("fully resumed stage 1 sent %v on a roster of %d", out, len(round.Roster))
		}
		if p := client(3, sess.Client[3]).Program(new(ClientRound), true, []uint64{3}); p.Steps[0].Send != TagAdvertise {
			t.Errorf("divergent client's stage 0 sends %d, want TagAdvertise", p.Steps[0].Send)
		}
	})

	t.Run("partial resume broadcasts the merged roster", func(t *testing.T) {
		var round ServerRound
		srv := newServer(next, sess.Server)
		p := srv.Program(&round, true, []uint64{3})
		sess.Server.RekeyEdges([]uint64{3})
		adv, err := client(3, sess.Client[3]).AdvertiseKeys()
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Steps[0].Apply(3, adv); err != nil {
			t.Fatal(err)
		}
		out, err := p.Steps[0].Seal()
		if err != nil {
			t.Fatal(err)
		}
		if out.Tag != TagRoster || !slices.Equal(out.To, cfg.ClientIDs) || len(out.Body.([]AdvertiseMsg)) != n {
			t.Fatalf("seal = tag %d to %v; want the merged roster broadcast to all %d", out.Tag, out.To, n)
		}
	})

	t.Run("no cached roster", func(t *testing.T) {
		p := newServer(next, NewServerSession()).Program(new(ServerRound), true, nil)
		if _, err := p.Steps[0].Seal(); err == nil || !strings.Contains(err.Error(), "no cached roster for this client set") {
			t.Errorf("server seal = %v, want no cached roster", err)
		}
		fresh, err := NewSession(rand)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := client(1, fresh).Program(new(ClientRound), true, nil).Steps[1].Do(nil); err == nil ||
			!strings.Contains(err.Error(), "no cached roster") {
			t.Errorf("client stage 1 = %v, want no cached roster", err)
		}
	})
}

// TestResultStepAllocatesNothing: the Result step keeps what it receives
// in the ClientRound by value, so a warm step's Do allocates nothing —
// RunWithSessions walks it once per (client, sub-round) and discards the
// round.
func TestResultStepAllocatesNothing(t *testing.T) {
	const n, dim = 5, 32
	cfg, inputs, _ := sessionRoundConfig(n, dim)
	c, err := newClient(cfg, 1, inputs[1], nil, sessionRand("result-step"), nil)
	if err != nil {
		t.Fatal(err)
	}
	var round ClientRound
	steps := c.Program(&round, false, nil).Steps
	result := steps[len(steps)-1]
	want := Result{Sum: make([]uint64, dim), Survivors: cfg.ClientIDs}
	var body any = want
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := result.Do(body); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("a warm Result step allocates %v per Do, want 0", allocs)
	}
	if !round.Received || &round.Result.Sum[0] != &want.Sum[0] {
		t.Fatal("the Result step did not keep the result it received")
	}
}
