package lightsecagg

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/field"
	"repro/internal/prg"
)

func randElems(s *prg.Stream, n int) []field.Element {
	out := make([]field.Element, n)
	for i := range out {
		var b [8]byte
		_, _ = s.Read(b[:])
		out[i] = field.RandomElement(b)
	}
	return out
}

func TestCodecMaskedRoundTrip(t *testing.T) {
	s := rng("codec-masked")
	m := MaskedMsg{From: 42, Y: randElems(s, 257)}
	p, err := encodeMasked(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeMasked(p)
	if err != nil {
		t.Fatal(err)
	}
	if got.From != m.From || len(got.Y) != len(m.Y) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	for i := range m.Y {
		if got.Y[i] != m.Y[i] {
			t.Fatalf("Y[%d]: %v != %v", i, got.Y[i], m.Y[i])
		}
	}
}

func TestCodecAggShareRoundTrip(t *testing.T) {
	s := rng("codec-agg")
	m := AggShareMsg{From: 7, S: randElems(s, 33)}
	p, err := encodeAggShare(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeAggShare(p)
	if err != nil {
		t.Fatal(err)
	}
	if got.From != m.From || len(got.S) != len(m.S) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	for i := range m.S {
		if got.S[i] != m.S[i] {
			t.Fatalf("S[%d]: %v != %v", i, got.S[i], m.S[i])
		}
	}
}

func TestCodecResultRoundTrip(t *testing.T) {
	s := rng("codec-res")
	sum := randElems(s, 100)
	p, err := encodeLSAResult(sum)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeLSAResult(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(sum) {
		t.Fatalf("length %d, want %d", len(got), len(sum))
	}
	for i := range sum {
		if got[i] != sum[i] {
			t.Fatalf("sum[%d]: %v != %v", i, got[i], sum[i])
		}
	}
}

func TestCodecEnvelopesRoundTrip(t *testing.T) {
	envs := []Envelope{
		{From: 1, To: 2, Ciphertext: []byte{0xAA, 0xBB, 0xCC}},
		{From: 3, To: 1, Ciphertext: nil},
		{From: 2, To: 3, Ciphertext: bytes.Repeat([]byte{0x55}, 300)},
	}
	p, err := encodeEnvelopes(envs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeEnvelopes(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(envs) {
		t.Fatalf("count %d, want %d", len(got), len(envs))
	}
	for i, e := range envs {
		g := got[i]
		if g.From != e.From || g.To != e.To || !bytes.Equal(g.Ciphertext, e.Ciphertext) {
			t.Fatalf("envelope %d mismatch: %+v vs %+v", i, g, e)
		}
	}
	// Empty list is valid.
	p, err = encodeEnvelopes(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, err = decodeEnvelopes(p); err != nil || len(got) != 0 {
		t.Fatalf("empty list: %v %v", got, err)
	}
}

func TestCodecShareVectorRoundTrip(t *testing.T) {
	s := rng("codec-share")
	share := randElems(s, 17)
	p, err := appendElems(nil, share)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]field.Element, len(share))
	if err := decodeShareInto(got, p); err != nil {
		t.Fatal(err)
	}
	for i := range share {
		if got[i] != share[i] {
			t.Fatalf("share[%d]: %v != %v", i, got[i], share[i])
		}
	}
	// A word at or above the modulus is canonicalised, as field.New does.
	binary.LittleEndian.PutUint64(p[4:], field.Modulus+5)
	if err := decodeShareInto(got, p); err != nil || got[0] != field.New(5) {
		t.Fatalf("non-canonical word decoded to %v, %v", got[0], err)
	}
	// Every check of the plaintext layout, each before dst is written.
	for name, bad := range map[string][]byte{
		"header truncated": p[:3],
		"body truncated":   p[:len(p)-1],
		"trailing byte":    append(bytes.Clone(p), 0),
		"count over cap":   {0xFF, 0xFF, 0xFF, 0xFF},
		"share too short":  shareBytes(t, share[:16]),
		"share too long":   shareBytes(t, append(share, share[0])),
	} {
		dst := make([]field.Element, len(share))
		if err := decodeShareInto(dst, bad); err == nil {
			t.Errorf("%s: accepted", name)
		}
		for _, e := range dst {
			if e != 0 {
				t.Fatalf("%s: dst written before the layout was checked", name)
			}
		}
	}
}

// shareBytes is appendElems(nil, xs) for a test table.
func shareBytes(t *testing.T, xs []field.Element) []byte {
	t.Helper()
	p, err := appendElems(nil, xs)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestRouteADGolden pins the envelope associated data to the bytes
// fmt.Sprintf("lsa/%d/%d/%d", round, from, to) produced before it was
// appended into a caller's array.
func TestRouteADGolden(t *testing.T) {
	const max = ^uint64(0)
	var buf [routeADMax]byte
	for _, tc := range []struct {
		round, from, to uint64
		want            string
	}{
		{0, 0, 0, "lsa/0/0/0"},
		{7003, 12, 5, "lsa/7003/12/5"},
		{1, 10, 100, "lsa/1/10/100"},
		{max, max, max, "lsa/18446744073709551615/18446744073709551615/18446744073709551615"},
	} {
		got := appendRouteAD(buf[:0], tc.round, tc.from, tc.to)
		if string(got) != tc.want || string(got) != fmt.Sprintf("lsa/%d/%d/%d", tc.round, tc.from, tc.to) {
			t.Errorf("route AD %q, want %q", got, tc.want)
		}
		if &got[0] != &buf[0] {
			t.Errorf("route AD %q outgrew routeADMax = %d", got, routeADMax)
		}
	}
}

// TestCodecMalformed: truncations, lying length prefixes, wrong magic and
// tag bytes, and trailing garbage must all fail loudly, never allocate
// absurdly, and never panic.
func TestCodecMalformed(t *testing.T) {
	s := rng("codec-bad")
	masked, err := encodeMasked(MaskedMsg{From: 9, Y: randElems(s, 32)})
	if err != nil {
		t.Fatal(err)
	}
	envs, err := encodeEnvelopes([]Envelope{{From: 1, To: 2, Ciphertext: []byte{1, 2, 3}}})
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		p    []byte
		dec  func([]byte) error
	}{
		{"masked-empty", nil, func(p []byte) error { _, err := decodeMasked(p); return err }},
		{"masked-wrong-magic", append([]byte{0x00}, masked[1:]...),
			func(p []byte) error { _, err := decodeMasked(p); return err }},
		{"masked-wrong-tag", append([]byte{lsaMagic, 0x7F}, masked[2:]...),
			func(p []byte) error { _, err := decodeMasked(p); return err }},
		{"masked-truncated", masked[:len(masked)-5],
			func(p []byte) error { _, err := decodeMasked(p); return err }},
		{"masked-trailing", append(append([]byte(nil), masked...), 0xFF),
			func(p []byte) error { _, err := decodeMasked(p); return err }},
		{"masked-as-aggshare", masked,
			func(p []byte) error { _, err := decodeAggShare(p); return err }},
		{"envelopes-truncated", envs[:len(envs)-2],
			func(p []byte) error { _, err := decodeEnvelopes(p); return err }},
		{"envelopes-trailing", append(append([]byte(nil), envs...), 0x00),
			func(p []byte) error { _, err := decodeEnvelopes(p); return err }},
		{"result-empty", []byte{lsaMagic},
			func(p []byte) error { _, err := decodeLSAResult(p); return err }},
		{"share-vector-truncated", shareBytes(t, randElems(s, 8))[:7],
			func(p []byte) error { return decodeShareInto(make([]field.Element, 8), p) }},
	}
	for _, tc := range cases {
		if err := tc.dec(tc.p); err == nil {
			t.Errorf("%s: decode accepted malformed payload", tc.name)
		}
	}

	// Lying length prefixes: a tiny frame declaring 2^20 entries must be
	// rejected before any large allocation.
	lying := []byte{lsaMagic, tagEnvelopes, 0x00, 0x00, 0x10, 0x00} // n = 1<<20
	if _, err := decodeEnvelopes(lying); err == nil {
		t.Error("lying envelope count accepted")
	}
	lyingSlab := []byte{lsaMagic, tagLSAResult, 0xFF, 0xFF, 0xFF, 0x00} // huge n
	if _, err := decodeLSAResult(lyingSlab); err == nil {
		t.Error("lying result slab accepted")
	}
}

// TestCodecSeededFuzz: random mutations of valid payloads either decode
// to something structurally valid or error — no panics, no hangs.
func TestCodecSeededFuzz(t *testing.T) {
	s := rng("codec-fuzz")
	masked, err := encodeMasked(MaskedMsg{From: 3, Y: randElems(s, 64)})
	if err != nil {
		t.Fatal(err)
	}
	envs, err := encodeEnvelopes([]Envelope{
		{From: 1, To: 2, Ciphertext: bytes.Repeat([]byte{9}, 40)},
		{From: 2, To: 1, Ciphertext: bytes.Repeat([]byte{7}, 40)},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		p := append([]byte(nil), masked...)
		if i%2 == 1 {
			p = append([]byte(nil), envs...)
		}
		// Mutate 1–4 random bytes and maybe truncate.
		for m := 0; m < int(1+s.Uint64n(4)); m++ {
			p[s.Uint64n(uint64(len(p)))] ^= byte(1 + s.Uint64n(255))
		}
		if s.Uint64n(4) == 0 {
			p = p[:s.Uint64n(uint64(len(p)+1))]
		}
		// Must not panic; errors are fine.
		_, _ = decodeMasked(p)
		_, _ = decodeEnvelopes(p)
		_, _ = decodeAggShare(p)
		_, _ = decodeLSAResult(p)
	}
}
