package transport

import (
	"bytes"
	"testing"
)

// TestPayloadRoundTrip: every field kind written by Writer reads back
// through Reader, and Done accepts exactly the bytes written.
func TestPayloadRoundTrip(t *testing.T) {
	w := NewWriter(0xD0, 0x7F, 0)
	w.Raw(3)
	w.Uint16(0xBEEF)
	w.Uint64(42)
	w.Words([]uint64{1, 2, 3}, 8)
	w.Bytes([]byte("ciphertext"), 64)
	w.Blob([]byte("key"), 32)
	w.Blob(nil, 32)
	p, err := w.Done()
	if err != nil {
		t.Fatal(err)
	}
	r := NewReader(p, 0xD0, 0x7F)
	if r.Byte() != 3 || r.Uint16() != 0xBEEF || r.Uint64() != 42 {
		t.Fatal("fixed fields diverged")
	}
	if ws := r.Words(8); len(ws) != 3 || ws[2] != 3 {
		t.Fatalf("words = %v", ws)
	}
	if !bytes.Equal(r.Bytes(64), []byte("ciphertext")) || !bytes.Equal(r.Blob(32), []byte("key")) || r.Blob(32) != nil {
		t.Fatal("variable fields diverged")
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(p); cut++ {
		r := NewReader(p[:cut], 0xD0, 0x7F)
		r.Byte()
		r.Uint16()
		r.Uint64()
		r.Words(8)
		r.Bytes(64)
		r.Blob(32)
		r.Blob(32)
		if r.Done() == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if NewReader(append(p, 0), 0xD0, 0x7F).Done() == nil || NewReader(p, 0xD1, 0x7F).Done() == nil {
		t.Fatal("trailing byte or wrong magic accepted")
	}
}

// TestPayloadBounds: a count the payload cannot carry, a count over its
// cap, an oversized field and a non-ascending key all fail — the first
// failure sticks, and later reads return zero values instead of panicking.
func TestPayloadBounds(t *testing.T) {
	lying := []byte{0xD0, 1, 0xFF, 0xFF, 0xFF, 0x7F, 9, 9}
	r := NewReader(lying, 0xD0, 1)
	if n := r.Count(1, 1<<30); n != 0 || r.Done() == nil {
		t.Fatalf("lying count accepted: n = %d", n)
	}
	if r.Uint16() != 0 || r.Uint64() != 0 || r.Words(8) != nil || r.Bytes(8) != nil || r.Blob(8) != nil || r.Raw(1) != nil {
		t.Fatal("poisoned reader returned data")
	}
	r = NewReader([]byte{0xD0, 1, 3, 0, 0, 0, 1, 2, 3}, 0xD0, 1)
	if n := r.Count(1, 2); n != 0 || r.Done() == nil {
		t.Fatalf("count over its cap accepted: n = %d", n)
	}
	w := NewWriter(0xD0, 1, 0)
	w.Uint64(5)
	w.Uint64(5)
	p, _ := w.Done()
	var prev uint64
	r = NewReader(p, 0xD0, 1)
	r.Key(0, &prev)
	r.Key(1, &prev)
	if r.Done() == nil {
		t.Fatal("duplicate key accepted")
	}
	w = NewWriter(0xD0, 1, 0)
	w.Words([]uint64{1, 2, 3}, 2)
	if _, err := w.Done(); err == nil {
		t.Fatal("slab over its cap encoded")
	}
	w = NewWriter(0xD0, 1, 0)
	w.Blob(make([]byte, 1<<16), 1<<20)
	if _, err := w.Done(); err == nil {
		t.Fatal("blob beyond the 16-bit length encoded")
	}
}
