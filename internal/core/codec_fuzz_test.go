package core

import (
	"reflect"
	"testing"

	"repro/internal/fuzzcorpus"
	"repro/internal/secagg"
)

// Native fuzz target for the stage-1 share-bundle codec (the 0xD0 binary
// frame family's list-structured member — the one with nested length
// prefixes, where a lying count or ciphertext length must fail before any
// allocation). CI runs a -fuzztime smoke over the checked-in seed corpus
// (testdata/fuzz/FuzzShareBundleCodec, which plain `go test` compares with
// these generators — fuzzcorpus.Check — and which is regenerated via
// WRITE_FUZZ_CORPUS=1 go test -run TestWriteShareBundleCorpus).

// shareBundleSeeds returns the seed frames: canonical encodings of the
// interesting shapes plus the malformed mutations a fuzzer should start
// from.
func shareBundleSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	enc := func(msgs []secagg.EncryptedShareMsg) []byte {
		p, err := encodeShareMsgs(msgs)
		if err != nil {
			tb.Fatal(err)
		}
		return p
	}
	full := enc([]secagg.EncryptedShareMsg{
		{From: 1, To: 2, Ciphertext: []byte{0xAA, 0xBB, 0xCC}},
		{From: 2, To: 1, Ciphertext: []byte{0x01}},
	})
	seeds := [][]byte{
		full,
		enc(nil), // empty delivery list
		enc([]secagg.EncryptedShareMsg{{From: 7, To: 9}}), // zero-length ciphertext
		full[:len(full)-1], // truncated ciphertext
		full[:7],           // truncated header
		{codecMagic, tagShareMsgs, 0xFF, 0xFF, 0xFF, 0xFF},   // lying count
		{0xDE, tagShareMsgs, 0, 0, 0, 0},                     // wrong magic
		{codecMagic, tagMaskedInput, 0, 0, 0, 0, 0, 0, 0, 0}, // wrong tag
		append(append([]byte(nil), full...), 0x00),           // trailing byte
	}
	return seeds
}

// FuzzShareBundleCodec: decodeShareMsgs must never panic, and every frame
// it accepts must survive an encode/decode round trip unchanged.
func FuzzShareBundleCodec(f *testing.F) {
	for _, s := range shareBundleSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		msgs, err := decodeShareMsgs(p)
		if err != nil {
			return // malformed input rejected: the property holds
		}
		re, err := encodeShareMsgs(msgs)
		if err != nil {
			t.Fatalf("accepted frame does not re-encode: %v", err)
		}
		msgs2, err := decodeShareMsgs(re)
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if !reflect.DeepEqual(msgs, msgs2) {
			t.Fatalf("round trip diverged:\n%+v\n%+v", msgs, msgs2)
		}
	})
}

func TestWriteShareBundleCorpus(t *testing.T) {
	fuzzcorpus.Check(t, "FuzzShareBundleCodec", shareBundleSeeds(t))
}
