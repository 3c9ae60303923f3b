package secagg

import (
	"bytes"
	"crypto/rand"
	"slices"
	"testing"

	"repro/internal/aead"
	"repro/internal/dh"
)

// sameChannelKey: two constructed keys are the same key iff one opens what
// the other sealed.
func sameChannelKey(a, b *aead.Key) bool {
	ct, err := a.Seal(rand.Reader, []byte("probe"), nil)
	if err != nil {
		return false
	}
	_, err = b.Open(ct, nil)
	return err == nil
}

// TestSessionPersistRoundTrip pins the property the restart-resume path
// depends on: a restored session carries the same key pairs, cached
// pairwise secrets, roster, ratchet position, and taint — and resolving a
// cached secret after restore performs zero new X25519 work.
func TestSessionPersistRoundTrip(t *testing.T) {
	a, err := NewSession(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSession(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	bCipher, bMask := b.keyPairs()

	// Populate both caches at ratchet step 1 and cache a roster.
	wantMask, err := a.maskWords(bMask.PublicBytes(), 1)
	if err != nil {
		t.Fatal(err)
	}
	wantChan, err := a.channelKey(bCipher.PublicBytes(), 1)
	if err != nil {
		t.Fatal(err)
	}
	aCipher, aMask := a.keyPairs()
	roster := []AdvertiseMsg{
		{From: 1, CipherPub: aCipher.PublicBytes(), MaskPub: aMask.PublicBytes()},
		{From: 2, CipherPub: bCipher.PublicBytes(), MaskPub: bMask.PublicBytes(), Signature: bytes.Repeat([]byte{7}, 64)},
	}
	a.StoreRoster(roster)
	a.MarkRatchetUsed(1)
	a.Taint()

	blob, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := UnmarshalSession(blob)
	if err != nil {
		t.Fatal(err)
	}

	if !restored.Tainted() {
		t.Fatal("taint lost in round trip")
	}
	if got := restored.NextRatchet(); got != 2 {
		t.Fatalf("NextRatchet = %d, want 2", got)
	}
	wantHash, ok1 := a.StateHash()
	gotHash, ok2 := restored.StateHash()
	if !ok1 || !ok2 || wantHash != gotHash {
		t.Fatalf("state hash mismatch after restore (%v/%v)", ok1, ok2)
	}
	rc, rm := restored.keyPairs()
	if !bytes.Equal(rc.PublicBytes(), aCipher.PublicBytes()) ||
		!bytes.Equal(rm.PublicBytes(), aMask.PublicBytes()) {
		t.Fatal("key pairs changed in round trip")
	}

	// Cached secrets must resolve without any new agreement.
	agreeBefore, genBefore := dh.AgreeCount(), dh.GenerateCount()
	gotMask, err := restored.maskWords(bMask.PublicBytes(), 1)
	if err != nil {
		t.Fatal(err)
	}
	gotChan, err := restored.channelKey(bCipher.PublicBytes(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(gotMask, wantMask) || !sameChannelKey(wantChan, gotChan) {
		t.Fatal("cached secrets changed in round trip")
	}
	if dh.AgreeCount() != agreeBefore || dh.GenerateCount() != genBefore {
		t.Fatalf("restore performed X25519 work: %d agreements, %d generations",
			dh.AgreeCount()-agreeBefore, dh.GenerateCount()-genBefore)
	}

	// Ratcheting forward from the restored step re-derives identically.
	wantNext, err := a.maskWords(bMask.PublicBytes(), 3)
	if err != nil {
		t.Fatal(err)
	}
	gotNext, err := restored.maskWords(bMask.PublicBytes(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(wantNext, gotNext) {
		t.Fatal("ratcheted secret diverged after restore")
	}
}

func TestSessionPersistMalformed(t *testing.T) {
	s, err := NewSession(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	s.StoreRoster([]AdvertiseMsg{{From: 1, CipherPub: make([]byte, 32), MaskPub: make([]byte, 32)}})
	blob, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string][]byte{
		"empty":         {},
		"short":         blob[:2],
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

	// A lying section count must be rejected before allocation.
	lying := append([]byte(nil), blob...)
	// Roster count lives after magic(3)+privs(64)+ratchet(8)+flags(1).
	lying[3+64+8+1] = 0xFF
	lying[3+64+8+1+1] = 0xFF
	lying[3+64+8+1+2] = 0x0F
	if _, err := UnmarshalSession(lying); err == nil {
		t.Error("lying roster count: decode succeeded")
	}
}

// TestSessionPersistSeeded fuzzes the decoder with structured garbage: it
// must reject or terminate, never panic.
func TestSessionPersistSeeded(t *testing.T) {
	s, err := NewSession(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(blob); i++ {
		for _, v := range []byte{0x00, 0x01, 0x7F, 0xFF} {
			mut := append([]byte(nil), blob...)
			mut[i] = v
			_, _ = UnmarshalSession(mut) // must not panic
		}
		_, _ = UnmarshalSession(blob[:i])
	}
}

// TestServerSessionPersistCarriesNoKeys pins the security boundary of the
// server record: reconstructed keys and pairwise secrets must never
// survive a persist/restore cycle.
func TestServerSessionPersistCarriesNoKeys(t *testing.T) {
	dropped, err := dh.Generate(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	peer, err := dh.Generate(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	in := NewServerSession()
	in.storeKey(dropped.PublicBytes(), dropped)
	if _, err := in.pairStream(dropped, peer.PublicBytes(), 0); err != nil {
		t.Fatal(err)
	}
	blob, err := in.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	out, err := UnmarshalServerSession(blob)
	if err != nil {
		t.Fatal(err)
	}
	if out.key(dropped.PublicBytes()) != nil {
		t.Fatal("restored session carries a reconstructed key")
	}
	before := dh.AgreeCount()
	if _, err := out.pairStream(dropped, peer.PublicBytes(), 0); err != nil {
		t.Fatal(err)
	}
	if dh.AgreeCount() == before {
		t.Fatal("restored session carries a pairwise secret")
	}
}
