package sig

import (
	"crypto/rand"
	"testing"
)

func TestSignVerify(t *testing.T) {
	s, err := NewSigner(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("round=5|U3={1,2,3}")
	sigBytes := s.Sign(msg)
	if !Verify(s.Public(), msg, sigBytes) {
		t.Fatal("valid signature rejected")
	}
}

func TestVerifyRejectsWrongMessage(t *testing.T) {
	s, _ := NewSigner(rand.Reader)
	sigBytes := s.Sign([]byte("msg-a"))
	if Verify(s.Public(), []byte("msg-b"), sigBytes) {
		t.Fatal("signature on different message accepted")
	}
}

func TestVerifyRejectsWrongKey(t *testing.T) {
	a, _ := NewSigner(rand.Reader)
	b, _ := NewSigner(rand.Reader)
	msg := []byte("msg")
	if Verify(b.Public(), msg, a.Sign(msg)) {
		t.Fatal("signature verified under wrong key")
	}
}

func TestVerifyRejectsMalformedInputs(t *testing.T) {
	s, _ := NewSigner(rand.Reader)
	msg := []byte("m")
	sigBytes := s.Sign(msg)
	if Verify(s.Public()[:10], msg, sigBytes) {
		t.Fatal("short public key accepted")
	}
	if Verify(s.Public(), msg, sigBytes[:10]) {
		t.Fatal("short signature accepted")
	}
}

func TestTamperedSignatureRejected(t *testing.T) {
	s, _ := NewSigner(rand.Reader)
	msg := []byte("tamper")
	sigBytes := s.Sign(msg)
	for i := 0; i < len(sigBytes); i += 7 {
		bad := append([]byte(nil), sigBytes...)
		bad[i] ^= 1
		if Verify(s.Public(), msg, bad) {
			t.Fatalf("tampered signature (byte %d) accepted", i)
		}
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	a, _ := NewSigner(rand.Reader)
	b, _ := NewSigner(rand.Reader)
	if err := r.Register(1, a.Public()); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(2, b.Public()); err != nil {
		t.Fatal(err)
	}

	msg := []byte("hello")
	if !r.VerifyFrom(1, msg, a.Sign(msg)) {
		t.Fatal("registry verification failed for registered identity")
	}
	if r.VerifyFrom(2, msg, a.Sign(msg)) {
		t.Fatal("cross-identity verification should fail")
	}
	if r.VerifyFrom(99, msg, a.Sign(msg)) {
		t.Fatal("unknown identity should fail verification")
	}
}

func TestRegistryAppendOnly(t *testing.T) {
	r := NewRegistry()
	a, _ := NewSigner(rand.Reader)
	b, _ := NewSigner(rand.Reader)
	if err := r.Register(1, a.Public()); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(1, b.Public()); err == nil {
		t.Fatal("re-registration (key swap) must be rejected")
	}
	// Original key still in effect.
	msg := []byte("x")
	if !r.VerifyFrom(1, msg, a.Sign(msg)) {
		t.Fatal("original key lost after rejected re-registration")
	}
}

func TestRegistryRejectsBadKeyLength(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(1, []byte{1, 2, 3}); err == nil {
		t.Fatal("short key registration accepted")
	}
}
