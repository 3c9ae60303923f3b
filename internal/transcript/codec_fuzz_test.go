package transcript

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/fuzzcorpus"
	"repro/internal/sig"
)

// Native fuzz target for the 0xDD transcript frame family. CI runs a
// -fuzztime smoke over the checked-in seed corpus
// (testdata/fuzz/FuzzTranscriptCodec, which plain `go test` compares with
// these generators — fuzzcorpus.Check — and which is regenerated via
// WRITE_FUZZ_CORPUS=1 go test -run TestWriteTranscriptCorpus).

// transcriptCodecSeeds returns the seed frames: signed and unsigned
// commitments, a proof, a combiner-tier bundle, and malformed mutations.
// The signer is derived from a fixed seed so regeneration is stable.
func transcriptCodecSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	signer, err := sig.NewSigner(bytes.NewReader(make([]byte, 64)))
	if err != nil {
		tb.Fatal(err)
	}
	roster := testRoster(5)
	digests := testDigests(roster)
	tr, err := Build(9, [32]byte{7}, roster, digests, signer)
	if err != nil {
		tb.Fatal(err)
	}
	unsigned, err := Build(9, [32]byte{}, roster[:1], digests[:1], nil)
	if err != nil {
		tb.Fatal(err)
	}
	pr, err := tr.ProofFor(3)
	if err != nil {
		tb.Fatal(err)
	}
	ct, err := NewRecorder(signer).BuildCombineRound(9, []ShardRoot{
		{Shard: 0, Root: [32]byte{1}}, {Shard: 1, Root: [32]byte{2}}, {Shard: 2, Root: [32]byte{3}},
	})
	if err != nil {
		tb.Fatal(err)
	}
	spr, err := ct.ProofFor(1)
	if err != nil {
		tb.Fatal(err)
	}
	enc := func(p []byte, err error) []byte {
		if err != nil {
			tb.Fatal(err)
		}
		return p
	}
	commit := enc(EncodeCommitment(&tr.Commitment))
	proof := enc(EncodeProof(pr))
	tier := enc(EncodeCombineTier(&CombineTierMsg{Commitment: ct.Commitment, Proof: *spr}))
	seeds := [][]byte{
		commit,
		enc(EncodeCommitment(&unsigned.Commitment)),
		proof,
		tier,
		commit[:len(commit)-1],            // truncated signature
		proof[:12],                        // truncated path
		{codecMagic, tagCommitment, 0xFF}, // future version
		{0xDC, tagProof, codecVersion},    // wrong magic
		append(append([]byte(nil), proof...), 0x00), // trailing byte
	}
	return seeds
}

// FuzzTranscriptCodec: the three decoders must never panic, and every
// frame any of them accepts must survive an encode/decode round trip
// unchanged.
func FuzzTranscriptCodec(f *testing.F) {
	for _, s := range transcriptCodecSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		if c, err := DecodeCommitment(p); err == nil {
			re, err := EncodeCommitment(c)
			if err != nil {
				t.Fatalf("accepted commitment does not re-encode: %v", err)
			}
			c2, err := DecodeCommitment(re)
			if err != nil || !reflect.DeepEqual(c, c2) {
				t.Fatalf("commitment round trip diverged (%v):\n%+v\n%+v", err, c, c2)
			}
		}
		if pr, err := DecodeProof(p); err == nil {
			re, err := EncodeProof(pr)
			if err != nil {
				t.Fatalf("accepted proof does not re-encode: %v", err)
			}
			pr2, err := DecodeProof(re)
			if err != nil || !reflect.DeepEqual(pr, pr2) {
				t.Fatalf("proof round trip diverged (%v):\n%+v\n%+v", err, pr, pr2)
			}
		}
		if m, err := DecodeCombineTier(p); err == nil {
			re, err := EncodeCombineTier(m)
			if err != nil {
				t.Fatalf("accepted tier bundle does not re-encode: %v", err)
			}
			m2, err := DecodeCombineTier(re)
			if err != nil || !reflect.DeepEqual(m, m2) {
				t.Fatalf("tier round trip diverged (%v):\n%+v\n%+v", err, m, m2)
			}
		}
	})
}

func TestWriteTranscriptCorpus(t *testing.T) {
	fuzzcorpus.Check(t, "FuzzTranscriptCodec", transcriptCodecSeeds(t))
}
