package dh

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
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

// TestExpandGolden freezes the derivation: the vectors were produced by the
// hmac.New-based Expand this package had before the stack HKDF (commit
// 44e96a9) — every cached session secret and ratchet step in a deployment
// hangs off these bytes — and the common case (an info
// label that fits the stack buffer) allocates nothing.
func TestExpandGolden(t *testing.T) {
	var secret [SharedSize]byte
	for i := range secret {
		secret[i] = byte(3*i + 1)
	}
	for _, c := range []struct {
		info []byte
		want string
	}{
		{nil, "00add5f9be5f755574cf34566b87e74ddb5c38e6b5166f67b425bfe8a2bddf51"},
		{[]byte("dordis/dh/ratchet/v1"), "23607db6ee2eb227605e41101e266e2fbdac535b9885626ce66783941109301e"},
		{bytes.Repeat([]byte{0xA5}, 40), "9886eb323c43381f479f528e8745cf73acb706ee39c6fc872fab844174a24380"},
		{bytes.Repeat([]byte("spill"), 40), "9f6db2f1f8be35135fd3f205140ce34c7b7900f76b1398b160f49b17523d0078"}, // past the stack buffer
	} {
		if got := hex.EncodeToString(sliceOf(Expand(secret, c.info))); got != c.want {
			t.Errorf("Expand(info of %d bytes) = %s, want %s", len(c.info), got, c.want)
		}
	}
	if got := hex.EncodeToString(sliceOf(Ratchet(secret))); got != "23607db6ee2eb227605e41101e266e2fbdac535b9885626ce66783941109301e" {
		t.Errorf("Ratchet = %s", got)
	}
	if got := hex.EncodeToString(sliceOf(RatchetN(secret, 3))); got != "4c77cfeb1cd54c0708a88b2ee13b07293707571978056fff1bdd04b30d444744" {
		t.Errorf("RatchetN(3) = %s", got)
	}

	info := bytes.Repeat([]byte{0xA5}, 40)
	var sink [SharedSize]byte
	if n := testing.AllocsPerRun(100, func() { sink = Expand(secret, info) }); n != 0 {
		t.Errorf("Expand allocates %v times a call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { sink = Ratchet(sink) }); n != 0 {
		t.Errorf("Ratchet allocates %v times a call, want 0", n)
	}
}

func sliceOf(a [SharedSize]byte) []byte { return a[:] }
