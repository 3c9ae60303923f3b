package aead

import (
	"bytes"
	"crypto/rand"
	"errors"
	"io"
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

	// The caller-buffer forms against the allocating forms as they stood
	// before Seal and Open became wrappers (parentSeal, parentOpen): either
	// side opens what the other sealed, the in-place seal overwrites exactly
	// its plaintext's window, and a dst prefix is never touched.
	prefix := []byte("prefix")
	old, err := parentSeal(k, rand.Reader, pt, ad)
	if err != nil {
		t.Fatal(err)
	}
	before := bytes.Clone(old)
	got, err := k.AppendOpen(bytes.Clone(prefix), old, ad)
	if err != nil || !bytes.Equal(got, append(bytes.Clone(prefix), pt...)) {
		t.Fatalf("AppendOpen(parent Seal) = %q, %v", got, err)
	}
	if !bytes.Equal(old, before) {
		t.Fatal("AppendOpen wrote to its ciphertext")
	}
	slab := make([]byte, len(prefix)+len(pt)+Overhead+1)
	copy(slab, prefix)
	slab[len(slab)-1] = 0xEE // the next window's first byte
	window := slab[: len(prefix) : len(slab)-1]
	copy(slab[len(prefix)+NonceSize:], pt)
	sealed, err := k.AppendSeal(window, rand.Reader, slab[len(prefix)+NonceSize:][:len(pt)], ad)
	if err != nil {
		t.Fatal(err)
	}
	if &sealed[0] != &slab[0] || len(sealed) != len(slab)-1 || !bytes.HasPrefix(sealed, prefix) || slab[len(slab)-1] != 0xEE {
		t.Fatalf("in-place seal left its window: %d bytes of %d", len(sealed), len(slab)-1)
	}
	if got, err := parentOpen(k, sealed[len(prefix):], ad); err != nil || !bytes.Equal(got, pt) {
		t.Fatalf("parent Open(in-place AppendSeal) = %q, %v", got, err)
	}
	tagFlipped, adFlipped := bytes.Clone(old), bytes.Clone(ad)
	tagFlipped[len(old)-1] ^= 1
	adFlipped[0] ^= 1
	for name, in := range map[string][2][]byte{"tag": {tagFlipped, ad}, "associated data": {old, adFlipped}} {
		dst := append(make([]byte, 0, 64), prefix...)
		if _, err := k.AppendOpen(dst, in[0], in[1]); !errors.Is(err, ErrDecrypt) {
			t.Errorf("flipped %s byte: %v, want ErrDecrypt", name, err)
		}
		if !bytes.Equal(dst, prefix) {
			t.Errorf("flipped %s byte: dst prefix is now %q", name, dst)
		}
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

// parentSeal and parentOpen are Key.Seal and Key.Open as they were when
// they were the only forms — the interop reference of
// TestKeySealOpenInterop.
func parentSeal(k *Key, rand io.Reader, plaintext, ad []byte) ([]byte, error) {
	out := make([]byte, NonceSize, Overhead+len(plaintext))
	if _, err := io.ReadFull(rand, out[:NonceSize]); err != nil {
		return nil, err
	}
	return k.g.Seal(out, out[:NonceSize], plaintext, ad), nil
}

func parentOpen(k *Key, ciphertext, ad []byte) ([]byte, error) {
	if len(ciphertext) < Overhead {
		return nil, ErrDecrypt
	}
	pt, err := k.g.Open(nil, ciphertext[:NonceSize], ciphertext[NonceSize:], ad)
	if err != nil {
		return nil, ErrDecrypt
	}
	return pt, nil
}
