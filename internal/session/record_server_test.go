package session

import (
	"math/rand"
	"reflect"
	"testing"
)

// unmarshalServerState decodes a server record into a fresh state.
func unmarshalServerState(p []byte) (*ServerState, error) {
	s := new(ServerState)
	return s, s.UnmarshalBinary(p)
}

func testServerSession() *ServerState {
	s := new(ServerState)
	roster := []Entry{
		{From: 1, CipherPub: []byte{1, 2, 3}, MaskPub: []byte{4, 5}, Signature: []byte{6}},
		{From: 2, CipherPub: []byte{7}, MaskPub: []byte{8, 9, 10}, Signature: []byte{11, 12}},
		{From: 5, CipherPub: []byte{13}, MaskPub: []byte{14}, Signature: []byte{15}},
	}
	s.StoreRoster(roster, []uint64{1, 2, 5})
	s.MarkTainted(5, 2)
	s.MarkRatchetUsed(41)
	return s
}

func TestServerSessionPersistRoundTrip(t *testing.T) {
	in := testServerSession()
	blob, err := in.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	out, err := unmarshalServerState(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := out.NextRatchet(), in.NextRatchet(); got != want {
		t.Fatalf("restored ratchet mark = %d, want %d", got, want)
	}
	if got := out.RosterFor([]uint64{1, 2, 5}); !reflect.DeepEqual(got, in.roster) {
		t.Fatalf("restored roster = %+v, want %+v", got, in.roster)
	}
	if _, ok := out.StateHashFor([]uint64{1, 2, 5}); !ok {
		t.Fatal("restored session cannot answer its own roster hash")
	}
	if got, want := out.TaintedMembers(), []uint64{2, 5}; !reflect.DeepEqual(got, want) {
		t.Fatalf("restored taint set = %v, want %v", got, want)
	}
}

func TestServerSessionPersistEmpty(t *testing.T) {
	blob, err := new(ServerState).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	out, err := unmarshalServerState(blob)
	if err != nil {
		t.Fatal(err)
	}
	if out.HasTaint() || out.NextRatchet() != 0 {
		t.Fatalf("empty restore: taint %v ratchet %d", out.HasTaint(), out.NextRatchet())
	}
}

func TestServerSessionPersistMalformed(t *testing.T) {
	good, err := testServerSession().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(good); cut++ {
		if _, err := unmarshalServerState(good[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, err := unmarshalServerState(append(good[:len(good):len(good)], 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	bad := append([]byte(nil), good...)
	bad[2] = serverVersion + 1
	if _, err := unmarshalServerState(bad); err == nil {
		t.Fatal("future version accepted")
	}
	bad = append([]byte(nil), good...)
	bad[1] = 'S' // a client blob must not pass as a server session
	if _, err := unmarshalServerState(bad); err == nil {
		t.Fatal("wrong tag accepted")
	}
	// Hostile roster count over a tiny payload must fail the payload check
	// before allocating.
	bad = append([]byte(nil), good[:3+8]...)
	bad = append(bad, 0xFF, 0xFF, 0x0F, 0x00)
	if _, err := unmarshalServerState(bad); err == nil {
		t.Fatal("hostile roster count accepted")
	}
}

func TestServerSessionPersistFuzzSeeded(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 5000; i++ {
		buf := make([]byte, rng.Intn(256))
		rng.Read(buf)
		if rng.Intn(2) == 0 && len(buf) > 3 {
			buf[0], buf[1], buf[2] = Magic, serverTag, serverVersion
		}
		unmarshalServerState(buf)
	}
}
