package lightsecagg

import (
	"bytes"
	"crypto/rand"
	"testing"

	"repro/internal/dh"
)

func TestLSASessionPersistRoundTrip(t *testing.T) {
	a, err := NewSession(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSession(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	want, err := a.channelKey(b.PublicBytes())
	if err != nil {
		t.Fatal(err)
	}
	roster := []AdvertiseMsg{
		{From: 1, CipherPub: a.PublicBytes()},
		{From: 2, CipherPub: b.PublicBytes()},
	}
	a.StoreRoster(roster)

	blob, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := UnmarshalSession(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(restored.PublicBytes(), a.PublicBytes()) {
		t.Fatal("channel key changed in round trip")
	}
	wantHash, ok1 := a.StateHash()
	gotHash, ok2 := restored.StateHash()
	if !ok1 || !ok2 || wantHash != gotHash {
		t.Fatalf("state hash mismatch after restore (%v/%v)", ok1, ok2)
	}

	agreeBefore, genBefore := dh.AgreeCount(), dh.GenerateCount()
	got, err := restored.channelKey(b.PublicBytes())
	if err != nil {
		t.Fatal(err)
	}
	ct, err := want.Seal(rand.Reader, []byte("probe"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := got.Open(ct, nil); err != nil {
		t.Fatal("cached channel secret changed in round trip")
	}
	if dh.AgreeCount() != agreeBefore || dh.GenerateCount() != genBefore {
		t.Fatal("restore performed X25519 work")
	}
}

func TestLSASessionPersistMalformed(t *testing.T) {
	s, err := NewSession(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	s.StoreRoster([]AdvertiseMsg{{From: 1, CipherPub: make([]byte, 32)}})
	blob, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":         {},
		"bad magic":     append([]byte{0x00}, blob[1:]...),
		"bad tag":       append([]byte{blob[0], 0x99}, blob[2:]...),
		"bad version":   append([]byte{blob[0], blob[1], 99}, blob[3:]...),
		"truncated":     blob[:len(blob)-1],
		"trailing byte": append(append([]byte(nil), blob...), 0),
	}
	for name, p := range cases {
		if _, err := UnmarshalSession(p); err == nil {
			t.Errorf("%s: decode succeeded", name)
		}
	}
	for i := 0; i < len(blob); i++ {
		_, _ = UnmarshalSession(blob[:i]) // must not panic
	}
}
