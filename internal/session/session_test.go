package session

import (
	"crypto/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/aead"
	"repro/internal/dh"
	"repro/internal/prg"
)

func testRoster(ids ...uint64) []Entry {
	out := make([]Entry, len(ids))
	for i, id := range ids {
		out[i] = Entry{From: id, CipherPub: []byte{byte(id), 0xC}, MaskPub: []byte{byte(id), 0xA}}
	}
	return out
}

func rosterIDs(roster []Entry) []uint64 {
	out := make([]uint64, len(roster))
	for i, m := range roster {
		out[i] = m.From
	}
	return out
}

// TestRosterCopyAndAliasing pins the two slice rules of both states: the
// cache never shares the caller's backing array (copy on store), and a
// slice handed out before DropMembers keeps showing the members it had
// (fresh slice, never an in-place filter).
func TestRosterCopyAndAliasing(t *testing.T) {
	ids := []uint64{1, 2, 3, 4}
	var c ClientState
	var s ServerState
	for name, state := range map[string]struct {
		store func(roster []Entry)
		get   func() []Entry
		drop  func(ids []uint64) []Entry
	}{
		"client": {c.StoreRoster, c.Roster, c.DropMembers},
		"server": {func(r []Entry) { s.StoreRoster(r, ids) }, func() []Entry { return s.RosterFor(ids) }, s.DropMembers},
	} {
		in := testRoster(ids...)
		state.store(in)
		in[0].From = 99
		held := state.get()
		if got := rosterIDs(held); !reflect.DeepEqual(got, ids) {
			t.Fatalf("%s: caller's write reached the cache: %v", name, got)
		}
		dropped := state.drop([]uint64{2, 4, 7})
		if got := rosterIDs(dropped); !reflect.DeepEqual(got, []uint64{2, 4}) {
			t.Fatalf("%s: dropped %v, want [2 4]", name, got)
		}
		if got := rosterIDs(held); !reflect.DeepEqual(got, ids) {
			t.Fatalf("%s: slice held across DropMembers now shows %v", name, got)
		}
		if got := rosterIDs(state.get()); !reflect.DeepEqual(got, []uint64{1, 3}) {
			t.Fatalf("%s: cache after drop = %v, want [1 3]", name, got)
		}
		if state.drop(nil) != nil {
			t.Fatalf("%s: dropping nobody returned entries", name)
		}
	}
}

func TestServerRosterForAndMissingMembers(t *testing.T) {
	var s ServerState
	if s.RosterFor([]uint64{1}) != nil || s.MissingMembers([]uint64{1}) != nil {
		t.Fatal("empty state answered a roster query")
	}
	if _, ok := s.StateHashFor([]uint64{1}); ok {
		t.Fatal("empty state answered a state hash")
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
	want := RosterHash(testRoster(1, 3))
	if got, _ := s.StateHashFor(sealedFor); got != want {
		t.Fatal("StateHashFor is not the hash of the cached roster")
	}
}

func TestResumable(t *testing.T) {
	ids := []uint64{1, 2, 3}
	live := func(Entry) bool { return true }
	var s ServerState
	s.StoreRoster(testRoster(1, 2), ids) // 3 was dead at sealing
	for _, tc := range []struct {
		name   string
		expect []uint64
		live   func(Entry) bool
		want   bool
	}{
		{"same cohort alive", []uint64{1, 2}, live, true},
		{"dead member recovered", []uint64{1, 2, 3}, live, false},
		{"member now dead", []uint64{1}, live, false},
		{"different member", []uint64{1, 3}, live, false},
		{"session lost or re-keyed", []uint64{1, 2}, func(m Entry) bool { return m.From != 2 }, false},
	} {
		if got := s.Resumable(ids, tc.expect, tc.live); got != tc.want {
			t.Errorf("%s: Resumable = %v, want %v", tc.name, got, tc.want)
		}
	}
	if s.Resumable([]uint64{1, 2}, []uint64{1, 2}, live) {
		t.Error("resumable over a client set the roster was not sealed for")
	}
}

func TestRatchetMarkMonotone(t *testing.T) {
	var c ClientState
	var s ServerState
	for name, state := range map[string]struct {
		mark  func(uint64)
		next  func() uint64
		reset func()
	}{
		"client": {c.MarkRatchetUsed, c.NextRatchet, c.Reset},
		"server": {s.MarkRatchetUsed, s.NextRatchet, s.Reset},
	} {
		for _, step := range []struct{ mark, want uint64 }{{0, 1}, {4, 5}, {2, 5}, {4, 5}, {5, 6}} {
			state.mark(step.mark)
			if got := state.next(); got != step.want {
				t.Fatalf("%s: after marking %d NextRatchet = %d, want %d", name, step.mark, got, step.want)
			}
		}
		state.reset()
		if got := state.next(); got != 0 {
			t.Fatalf("%s: NextRatchet after Reset = %d", name, got)
		}
	}
}

func TestTaint(t *testing.T) {
	var c ClientState
	c.StoreRoster(testRoster(1, 2))
	c.Taint()
	c.DropMembers([]uint64{1}) // a partial resume leaves client taint to the handshake
	if !c.Tainted() {
		t.Fatal("DropMembers cleared the client's in-flight taint")
	}
	c.ClearTaint()
	if c.Tainted() {
		t.Fatal("ClearTaint left the taint set")
	}
	c.Taint()
	c.Reset()
	if c.Tainted() || c.Roster() != nil {
		t.Fatal("Reset left taint or roster behind")
	}

	var s ServerState
	s.MarkTainted() // no ids: no taint
	if s.HasTaint() || len(s.TaintedMembers()) != 0 {
		t.Fatal("empty MarkTainted tainted the state")
	}
	s.StoreRoster(testRoster(1, 2, 5), []uint64{1, 2, 5})
	s.MarkTainted(5, 2, 5)
	if got := s.TaintedMembers(); !reflect.DeepEqual(got, []uint64{2, 5}) {
		t.Fatalf("TaintedMembers = %v, want [2 5]", got)
	}
	s.DropMembers([]uint64{5})
	if got := s.TaintedMembers(); !reflect.DeepEqual(got, []uint64{2}) {
		t.Fatalf("after dropping 5, TaintedMembers = %v, want [2]", got)
	}
	s.Reset()
	if s.HasTaint() || s.RosterFor([]uint64{1, 2, 5}) != nil {
		t.Fatal("Reset left taint or roster behind")
	}
}

// TestSecretsMonotone: the cache serves a step below the cached one by
// re-agreeing, and never lets that lower step overwrite the higher one.
func TestSecretsMonotone(t *testing.T) {
	raw := [dh.SharedSize]byte{1, 2, 3}
	agreed := 0
	agree := func() ([dh.SharedSize]byte, error) { agreed++; return raw, nil }
	var c Secrets
	at := func(step uint64) [dh.SharedSize]byte {
		t.Helper()
		r, err := c.at("peer", step, agree, nil)
		if err != nil {
			t.Fatal(err)
		}
		sec := r.sec
		if want := dh.RatchetN(raw, step); sec != want {
			t.Fatalf("step %d: not the raw secret ratcheted %d times", step, step)
		}
		return sec
	}
	at(3)
	at(3)
	at(5)
	if agreed != 1 {
		t.Fatalf("monotone lookups agreed %d times, want 1", agreed)
	}
	at(1) // below the cached step: re-derived from the key pair
	if agreed != 2 {
		t.Fatalf("a lower step agreed %d times in total, want 2", agreed)
	}
	if got := c.m["peer"].step; got != 5 {
		t.Fatalf("cached step = %d after a lower lookup, want 5", got)
	}
	at(6)
	if agreed != 2 {
		t.Fatal("the lower lookup displaced the cached secret")
	}

	c.Delete("nobody")
	c.DeleteFunc(func(k string) bool { return k == "peer" })
	at(0)
	if agreed != 3 {
		t.Fatal("DeleteFunc kept the secret")
	}
	c.Clear()
	at(0)
	if agreed != 4 {
		t.Fatal("Clear kept the secret")
	}
}

// TestSecretsKeyAt: the constructed AEAD key is the cached secret's, built
// once per ratchet step and shared by every caller at that step (the
// chunks of a round, both directions of an edge), dropped when the secret
// ratchets on, and a plain lookup in between neither loses nor rebuilds it.
func TestSecretsKeyAt(t *testing.T) {
	raw := [dh.SharedSize]byte{9, 8, 7}
	agreed := 0
	agree := func() ([dh.SharedSize]byte, error) { agreed++; return raw, nil }
	var c Secrets
	keyAt := func(step uint64) *aead.Key {
		t.Helper()
		k, err := c.KeyAt("peer", step, agree)
		if err != nil {
			t.Fatal(err)
		}
		ct, err := k.Seal(rand.Reader, []byte("probe"), nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := aead.Open(dh.RatchetN(raw, step), ct, nil); err != nil {
			t.Fatalf("step %d: the key is not the raw secret ratcheted %d times", step, step)
		}
		return k
	}
	k2 := keyAt(2)
	if _, err := c.at("peer", 2, agree, nil); err != nil {
		t.Fatal(err)
	}
	if keyAt(2) != k2 {
		t.Fatal("a second lookup at the same step built a second key")
	}
	if keyAt(3) == k2 {
		t.Fatal("the ratcheted secret kept the previous step's key")
	}
	if agreed != 1 {
		t.Fatalf("agreed %d times, want 1", agreed)
	}

	pure := func() ([dh.SharedSize]byte, error) { return raw, nil }
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.KeyAt("other", 1, pure); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	k, _ := c.KeyAt("other", 1, pure)
	if again, _ := c.KeyAt("other", 1, pure); again != k {
		t.Fatal("racing first lookups left no stable cached key")
	}
}

// TestSecretsStreamAt: the mask stream is the cached secret's, keyed once
// per ratchet step and shared by every caller at that step (the chunks of
// a round), dropped when the secret ratchets on; a plain lookup in between
// neither loses nor rebuilds it.
func TestSecretsStreamAt(t *testing.T) {
	raw := [dh.SharedSize]byte{4, 5, 6}
	agreed, built := 0, 0
	agree := func() ([dh.SharedSize]byte, error) { agreed++; return raw, nil }
	newStream := func(sec [dh.SharedSize]byte) *prg.Stream { built++; return prg.NewStream(prg.NewSeed(sec[:])) }
	var c Secrets
	streamAt := func(step uint64) *prg.Stream {
		t.Helper()
		s, err := c.StreamAt("peer", step, agree, newStream)
		if err != nil {
			t.Fatal(err)
		}
		want := dh.RatchetN(raw, step)
		if s.Uint64() != prg.NewStream(prg.NewSeed(want[:])).Uint64() {
			t.Fatalf("step %d: the stream is not keyed by the raw secret ratcheted %d times", step, step)
		}
		s.Seek(0) // the test drew from it; callers only aim cursors
		return s
	}
	s2 := streamAt(2)
	if _, err := c.at("peer", 2, agree, nil); err != nil {
		t.Fatal(err)
	}
	if streamAt(2) != s2 || built != 1 {
		t.Fatalf("a second lookup at the same step built %d streams", built)
	}
	if streamAt(3) == s2 || built != 2 {
		t.Fatal("the ratcheted secret kept the previous step's stream")
	}
	if agreed != 1 {
		t.Fatalf("agreed %d times, want 1", agreed)
	}
}
