package aead

import (
	"bytes"
	"crypto/rand"
	"errors"
	"sync"
	"testing"
	"testing/quick"
)

func key(b byte) (k [KeySize]byte) {
	for i := range k {
		k[i] = b
	}
	return
}

func TestRoundTrip(t *testing.T) {
	k := key(1)
	pt := []byte("secret share payload")
	ad := []byte("u=3|v=7|round=12")
	ct, err := Seal(k, rand.Reader, pt, ad)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Open(k, ct, ad)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pt) {
		t.Fatalf("got %q want %q", got, pt)
	}
}

func TestRoundTripProperty(t *testing.T) {
	k := key(9)
	f := func(pt, ad []byte) bool {
		ct, err := Seal(k, rand.Reader, pt, ad)
		if err != nil {
			return false
		}
		got, err := Open(k, ct, ad)
		if err != nil {
			return false
		}
		return bytes.Equal(got, pt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestWrongKeyFails(t *testing.T) {
	ct, _ := Seal(key(1), rand.Reader, []byte("x"), nil)
	if _, err := Open(key(2), ct, nil); !errors.Is(err, ErrDecrypt) {
		t.Fatalf("want ErrDecrypt, got %v", err)
	}
}

func TestWrongADFails(t *testing.T) {
	ct, _ := Seal(key(1), rand.Reader, []byte("x"), []byte("u=1|v=2"))
	if _, err := Open(key(1), ct, []byte("u=2|v=1")); !errors.Is(err, ErrDecrypt) {
		t.Fatalf("swapped routing metadata must not decrypt, got %v", err)
	}
}

func TestTamperedCiphertextFails(t *testing.T) {
	ct, _ := Seal(key(1), rand.Reader, []byte("integrity"), nil)
	for i := range ct {
		tampered := append([]byte(nil), ct...)
		tampered[i] ^= 0x40
		if _, err := Open(key(1), tampered, nil); err == nil {
			t.Fatalf("bit flip at %d not detected", i)
		}
	}
}

func TestTruncatedCiphertextFails(t *testing.T) {
	ct, _ := Seal(key(1), rand.Reader, []byte("hello"), nil)
	for n := 0; n < Overhead; n++ {
		if _, err := Open(key(1), ct[:n], nil); !errors.Is(err, ErrDecrypt) {
			t.Fatalf("truncation to %d bytes not rejected: %v", n, err)
		}
	}
}

func TestNonceFreshness(t *testing.T) {
	k := key(3)
	ct1, _ := Seal(k, rand.Reader, []byte("same"), nil)
	ct2, _ := Seal(k, rand.Reader, []byte("same"), nil)
	if bytes.Equal(ct1, ct2) {
		t.Fatal("two encryptions of the same plaintext should differ (fresh nonces)")
	}
}

func TestOverheadConstant(t *testing.T) {
	ct, _ := Seal(key(5), rand.Reader, make([]byte, 100), nil)
	if len(ct) != 100+Overhead {
		t.Fatalf("ciphertext length %d, want %d", len(ct), 100+Overhead)
	}
}

// TestKeySealOpenInterop: a constructed Key and the package-level
// functions are one scheme — each opens what the other sealed, both name
// every failure ErrDecrypt — and one Key serves concurrent sealers and
// openers (a session shares it across the chunks of a round).
func TestKeySealOpenInterop(t *testing.T) {
	raw := key(5)
	k := NewKey(raw)
	pt, ad := []byte("share bundle"), []byte("round=4|u=1|v=2")

	ct, err := k.Seal(rand.Reader, pt, ad)
	if err != nil {
		t.Fatal(err)
	}
	if len(ct) != len(pt)+Overhead {
		t.Fatalf("ciphertext of %d bytes, want %d", len(ct), len(pt)+Overhead)
	}
	if got, err := Open(raw, ct, ad); err != nil || !bytes.Equal(got, pt) {
		t.Fatalf("Open(Key.Seal) = %q, %v", got, err)
	}
	ct2, err := Seal(raw, rand.Reader, pt, ad)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := k.Open(ct2, ad); err != nil || !bytes.Equal(got, pt) {
		t.Fatalf("Key.Open(Seal) = %q, %v", got, err)
	}

	if _, err := k.Open(ct, []byte("round=5|u=1|v=2")); !errors.Is(err, ErrDecrypt) {
		t.Errorf("wrong associated data: %v, want ErrDecrypt", err)
	}
	if _, err := k.Open(ct[:Overhead-1], ad); !errors.Is(err, ErrDecrypt) {
		t.Errorf("short ciphertext: %v, want ErrDecrypt", err)
	}
	if _, err := NewKey(key(6)).Open(ct, ad); !errors.Is(err, ErrDecrypt) {
		t.Errorf("wrong key: %v, want ErrDecrypt", err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			msg := bytes.Repeat([]byte{byte(g)}, 100+g)
			for i := 0; i < 50; i++ {
				ct, err := k.Seal(rand.Reader, msg, ad)
				if err != nil {
					t.Error(err)
					return
				}
				if got, err := k.Open(ct, ad); err != nil || !bytes.Equal(got, msg) {
					t.Errorf("goroutine %d: round trip failed: %v", g, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
