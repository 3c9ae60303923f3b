package secagg

import (
	"reflect"
	"testing"

	"repro/internal/session"
)

// The continuity rules of the two SecAgg sessions: the roster each caches,
// the ratchet high-water mark, taint, and when a cached roster resumes.

func testRoster(ids ...uint64) []AdvertiseMsg {
	out := make([]AdvertiseMsg, len(ids))
	for i, id := range ids {
		out[i] = AdvertiseMsg{From: id, CipherPub: []byte{byte(id), 0xC}, MaskPub: []byte{byte(id), 0xA}}
	}
	return out
}

func rosterIDs(roster []AdvertiseMsg) []uint64 {
	out := make([]uint64, len(roster))
	for i, m := range roster {
		out[i] = m.From
	}
	return out
}

// TestRosterCopyAndAliasing pins the slice rules of both sessions. A
// client session keeps the roster it is handed — the step's deal borrows
// the same one — so a store allocates nothing; a server session copies
// what it stores, so the caller's writes never reach its cache. On both, a
// roster held across RekeyEdges keeps showing the members it had (the
// kept roster is a fresh slice, never an in-place filter), and the drop
// returns exactly the dropped entries.
func TestRosterCopyAndAliasing(t *testing.T) {
	ids := []uint64{1, 2, 3, 4}
	c, err := NewSession(sessionRand("roster-aliasing"))
	if err != nil {
		t.Fatal(err)
	}
	in := testRoster(ids...)
	if n := testing.AllocsPerRun(100, func() { c.StoreRoster(in) }); n != 0 {
		t.Errorf("a client's StoreRoster allocates %v, want 0", n)
	}
	if held := c.Roster(); len(held) != len(in) || &held[0] != &in[0] {
		t.Fatal("the client session does not keep the roster it was handed")
	}

	s := NewServerSession()
	serverIn := testRoster(ids...)
	s.StoreRoster(serverIn, ids)
	serverIn[0].From = 99
	if got := rosterIDs(s.RosterFor(ids)); !reflect.DeepEqual(got, ids) {
		t.Fatalf("server: caller's write reached the cache: %v", got)
	}

	for name, state := range map[string]struct {
		get   func() []AdvertiseMsg
		rekey func(ids []uint64)
	}{
		"client": {c.Roster, c.RekeyEdges},
		"server": {func() []AdvertiseMsg { return s.RosterFor(ids) }, s.RekeyEdges},
	} {
		held := state.get()
		state.rekey(nil)
		if got := state.get(); len(got) != len(held) || &got[0] != &held[0] {
			t.Fatalf("%s: rekeying no edges replaced the roster", name)
		}
		state.rekey([]uint64{2, 4, 7})
		if got := rosterIDs(held); !reflect.DeepEqual(got, ids) {
			t.Fatalf("%s: roster held across RekeyEdges now shows %v", name, got)
		}
		if got := rosterIDs(state.get()); !reflect.DeepEqual(got, []uint64{1, 3}) {
			t.Fatalf("%s: cache after RekeyEdges = %v, want [1 3]", name, got)
		}
	}

	roster := testRoster(ids...)
	kept, dropped := dropMembers(roster, []uint64{4, 2, 7})
	if !reflect.DeepEqual(dropped, []AdvertiseMsg{roster[1], roster[3]}) {
		t.Fatalf("dropped %v, want the entries of 2 and 4", rosterIDs(dropped))
	}
	if !reflect.DeepEqual(kept, []AdvertiseMsg{roster[0], roster[2]}) || &kept[0] == &roster[0] {
		t.Fatal("the kept roster is not a fresh slice of the entries of 1 and 3")
	}
	if kept, dropped := dropMembers(roster, nil); dropped != nil || &kept[0] != &roster[0] {
		t.Fatal("dropping nobody returned entries or a new roster")
	}
}

func TestServerRosterForAndMissingMembers(t *testing.T) {
	s := NewServerSession()
	if s.RosterFor([]uint64{1}) != nil || s.MissingMembers([]uint64{1}) != nil {
		t.Fatal("empty session answered a roster query")
	}
	if _, ok := s.StateHashFor([]uint64{1}); ok {
		t.Fatal("empty session answered a state hash")
	}
	sealedFor := []uint64{1, 2, 3, 4}
	s.StoreRoster(testRoster(1, 3), sealedFor) // 2 and 4 were dead at sealing
	for _, tc := range []struct {
		name string
		ids  []uint64
		hit  bool
	}{
		{"exact", []uint64{1, 2, 3, 4}, true},
		{"permuted", []uint64{2, 1, 3, 4}, false},
		{"subset", []uint64{1, 2, 3}, false},
		{"superset", []uint64{1, 2, 3, 4, 5}, false},
		{"roster members only", []uint64{1, 3}, false},
		{"empty", nil, false},
	} {
		if got := s.RosterFor(tc.ids) != nil; got != tc.hit {
			t.Errorf("RosterFor(%s) hit = %v, want %v", tc.name, got, tc.hit)
		}
		if _, got := s.StateHashFor(tc.ids); got != tc.hit {
			t.Errorf("StateHashFor(%s) ok = %v, want %v", tc.name, got, tc.hit)
		}
	}
	if got := s.MissingMembers(sealedFor); !reflect.DeepEqual(got, []uint64{2, 4}) {
		t.Fatalf("MissingMembers = %v, want [2 4]", got)
	}
	if got := s.MissingMembers([]uint64{1, 3}); got != nil {
		t.Fatalf("MissingMembers for another client set = %v, want nil", got)
	}
	want := session.RosterHash(testRoster(1, 3))
	if got, _ := s.StateHashFor(sealedFor); got != want {
		t.Fatal("StateHashFor is not the hash of the cached roster")
	}
}

// TestResumable: round sessions skip the advertise stage only when the
// cached roster was sealed for exactly the round's client set, lists
// exactly the clients alive at the advertise stage, and every member's
// session still advertises the cached keys.
func TestResumable(t *testing.T) {
	ids := []uint64{1, 2, 3}
	rs, err := NewRoundSessions(ids, sessionRand("resumable"))
	if err != nil {
		t.Fatal(err)
	}
	roster := func(members ...uint64) []AdvertiseMsg {
		out := make([]AdvertiseMsg, len(members))
		for i, id := range members {
			cipherKey, maskKey := rs.Client[id].keyPairs()
			out[i] = AdvertiseMsg{From: id, CipherPub: cipherKey.PublicBytes(), MaskPub: maskKey.PublicBytes()}
		}
		return out
	}
	rs.Server.StoreRoster(roster(1, 2), ids) // 3 was dead at sealing
	cfg := &Config{ClientIDs: ids}
	deadAtAdvertise := func(dead ...uint64) DropSchedule {
		d := DropSchedule{}
		for _, id := range dead {
			d[id] = StageAdvertiseKeys
		}
		return d
	}
	for _, tc := range []struct {
		name  string
		drops DropSchedule
		want  bool
	}{
		{"same cohort alive", deadAtAdvertise(3), true},
		{"dead member recovered", nil, false},
		{"member now dead", deadAtAdvertise(2, 3), false},
		{"different member", deadAtAdvertise(2), false},
		{"dropping later still advertises", DropSchedule{3: StageAdvertiseKeys, 2: StageMaskedInput}, true},
	} {
		if got := rs.resumable(cfg, tc.drops); got != tc.want {
			t.Errorf("%s: resumable = %v, want %v", tc.name, got, tc.want)
		}
	}
	if rs.resumable(&Config{ClientIDs: []uint64{1, 2}}, nil) {
		t.Error("resumable over a client set the roster was not sealed for")
	}
	if err := rs.Client[2].Rekey(sessionRand("resumable-rekey")); err != nil {
		t.Fatal(err)
	}
	if rs.resumable(cfg, deadAtAdvertise(3)) {
		t.Error("resumable although member 2's session no longer advertises the cached keys")
	}
	delete(rs.Client, 2)
	if rs.resumable(cfg, deadAtAdvertise(3)) {
		t.Error("resumable although member 2 has no session")
	}
	var none *RoundSessions
	if none.resumable(cfg, nil) {
		t.Error("no sessions resumed")
	}
}

func TestRatchetMarkMonotone(t *testing.T) {
	c, err := NewSession(sessionRand("ratchet-mark"))
	if err != nil {
		t.Fatal(err)
	}
	s := NewServerSession()
	for name, state := range map[string]struct {
		mark  func(uint64)
		next  func() uint64
		rekey func()
	}{
		"client": {c.MarkRatchetUsed, c.NextRatchet, func() {
			if err := c.Rekey(sessionRand("ratchet-mark-rekey")); err != nil {
				t.Fatal(err)
			}
		}},
		"server": {s.MarkRatchetUsed, s.NextRatchet, s.Rekey},
	} {
		for _, step := range []struct{ mark, want uint64 }{{0, 1}, {4, 5}, {2, 5}, {4, 5}, {5, 6}} {
			state.mark(step.mark)
			if got := state.next(); got != step.want {
				t.Fatalf("%s: after marking %d NextRatchet = %d, want %d", name, step.mark, got, step.want)
			}
		}
		state.rekey()
		if got := state.next(); got != 0 {
			t.Fatalf("%s: NextRatchet after Rekey = %d", name, got)
		}
	}
}

func TestTaint(t *testing.T) {
	c, err := NewSession(sessionRand("taint"))
	if err != nil {
		t.Fatal(err)
	}
	c.StoreRoster(testRoster(1, 2))
	c.Taint()
	c.RekeyEdges([]uint64{1}) // a partial resume leaves client taint to the handshake
	if !c.Tainted() {
		t.Fatal("RekeyEdges cleared the client's in-flight taint")
	}
	c.ClearTaint()
	if c.Tainted() {
		t.Fatal("ClearTaint left the taint set")
	}
	c.Taint()
	if err := c.Rekey(sessionRand("taint-rekey")); err != nil {
		t.Fatal(err)
	}
	if c.Tainted() || c.Roster() != nil {
		t.Fatal("Rekey left taint or roster behind")
	}

	s := NewServerSession()
	if len(s.TaintedMembers()) != 0 {
		t.Fatal("a fresh server session has tainted members")
	}
	s.StoreRoster(testRoster(1, 2, 5), []uint64{1, 2, 5})
	for _, v := range []uint64{5, 2, 5} {
		s.taintKey(v, []byte{byte(v), 0xA})
	}
	if got := s.TaintedMembers(); !reflect.DeepEqual(got, []uint64{2, 5}) {
		t.Fatalf("TaintedMembers = %v, want [2 5]", got)
	}
	s.RekeyEdges([]uint64{5})
	if got := s.TaintedMembers(); !reflect.DeepEqual(got, []uint64{2}) {
		t.Fatalf("after re-keying 5's edges, TaintedMembers = %v, want [2]", got)
	}
	s.Rekey()
	if len(s.TaintedMembers()) > 0 || s.RosterFor([]uint64{1, 2, 5}) != nil {
		t.Fatal("Rekey left taint or roster behind")
	}
}
