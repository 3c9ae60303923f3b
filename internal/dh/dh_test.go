package dh

import (
	"bytes"
	"crypto/rand"
	"testing"
)

func TestAgreementSymmetric(t *testing.T) {
	alice, err := Generate(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	bob, err := Generate(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	sA, err := alice.Agree(bob.PublicBytes())
	if err != nil {
		t.Fatal(err)
	}
	sB, err := bob.Agree(alice.PublicBytes())
	if err != nil {
		t.Fatal(err)
	}
	if sA != sB {
		t.Fatal("shared secrets differ")
	}
}

func TestDistinctPairsDistinctSecrets(t *testing.T) {
	alice, _ := Generate(rand.Reader)
	bob, _ := Generate(rand.Reader)
	carol, _ := Generate(rand.Reader)
	sAB, _ := alice.Agree(bob.PublicBytes())
	sAC, _ := alice.Agree(carol.PublicBytes())
	if sAB == sAC {
		t.Fatal("secrets with different peers should differ")
	}
}

func TestInvalidPeerKey(t *testing.T) {
	alice, _ := Generate(rand.Reader)
	if _, err := alice.Agree([]byte{1, 2, 3}); err == nil {
		t.Fatal("short peer key should error")
	}
}

func TestPublicKeySize(t *testing.T) {
	kp, _ := Generate(rand.Reader)
	if len(kp.PublicBytes()) != PublicKeySize {
		t.Fatalf("public key size %d, want %d", len(kp.PublicBytes()), PublicKeySize)
	}
}

func TestDeterministicFromSeededRand(t *testing.T) {
	// Generation from a fixed byte stream is deterministic, which the
	// simulator relies on for reproducibility.
	mk := func() *KeyPair {
		kp, err := Generate(bytes.NewReader(bytes.Repeat([]byte{7}, 64)))
		if err != nil {
			t.Fatal(err)
		}
		return kp
	}
	if !bytes.Equal(mk().PublicBytes(), mk().PublicBytes()) {
		t.Fatal("key generation should be deterministic for a fixed reader")
	}
}

func TestExpandDeterministicAndSeparated(t *testing.T) {
	alice, _ := Generate(rand.Reader)
	bob, _ := Generate(rand.Reader)
	s, _ := alice.Agree(bob.PublicBytes())

	a := Expand(s, []byte("chunk/0"))
	b := Expand(s, []byte("chunk/0"))
	if a != b {
		t.Fatal("Expand is not deterministic")
	}
	c := Expand(s, []byte("chunk/1"))
	if a == c {
		t.Fatal("distinct info labels must yield distinct subkeys")
	}
	var other [SharedSize]byte
	other[0] = 1
	if Expand(other, []byte("chunk/0")) == a {
		t.Fatal("distinct secrets must yield distinct subkeys")
	}
	if a == s {
		t.Fatal("Expand must not be the identity")
	}
}

func TestRatchetChain(t *testing.T) {
	alice, _ := Generate(rand.Reader)
	bob, _ := Generate(rand.Reader)
	s, _ := alice.Agree(bob.PublicBytes())

	if RatchetN(s, 0) != s {
		t.Fatal("RatchetN(·, 0) must be the identity")
	}
	r1 := Ratchet(s)
	if r1 == s {
		t.Fatal("ratchet step must change the secret")
	}
	if RatchetN(s, 1) != r1 {
		t.Fatal("RatchetN(·, 1) must equal one Ratchet step")
	}
	if RatchetN(s, 3) != Ratchet(Ratchet(Ratchet(s))) {
		t.Fatal("RatchetN must compose Ratchet")
	}
	// Ratcheting is symmetric: both ends of the agreement reach the same
	// chain because the chain depends only on the shared secret.
	sB, _ := bob.Agree(alice.PublicBytes())
	if RatchetN(sB, 5) != RatchetN(s, 5) {
		t.Fatal("ratchet chains diverge across the two ends")
	}
}

func TestAgreeAndGenerateCounters(t *testing.T) {
	g0, a0 := GenerateCount(), AgreeCount()
	alice, _ := Generate(rand.Reader)
	bob, _ := Generate(rand.Reader)
	if _, err := alice.Agree(bob.PublicBytes()); err != nil {
		t.Fatal(err)
	}
	if _, err := bob.Agree(alice.PublicBytes()); err != nil {
		t.Fatal(err)
	}
	if d := GenerateCount() - g0; d < 2 {
		t.Fatalf("GenerateCount advanced by %d, want ≥ 2", d)
	}
	if d := AgreeCount() - a0; d < 2 {
		t.Fatalf("AgreeCount advanced by %d, want ≥ 2", d)
	}
}
