package transcript

import (
	"bytes"
	"testing"

	"repro/internal/fuzzcorpus"
	"repro/internal/sig"
)

// The conformance table of the 0xDD transcript frames (codec.go) and the
// chain record that persists a recorder, run by fuzzcorpus. CI runs a
// -fuzztime smoke over FuzzTranscriptCodec; after a deliberate frame
// change, update its corpus with
// WRITE_FUZZ_CORPUS=1 go test -run TestCodecConformance.

func TestCodecConformance(t *testing.T) {
	t.Run("transcript", func(t *testing.T) { transcriptFamily(t).Check(t) })
}

// TestCodecAllocBound bounds what each decoder allocates on every refusal
// row, sample and checked-in corpus seed (fuzzcorpus.Family.CheckAlloc);
// the fuzz target enforces the same bound on every input it tries. It
// reads a process-wide counter, so it does not run in parallel.
func TestCodecAllocBound(t *testing.T) {
	t.Run("transcript", func(t *testing.T) { transcriptFamily(t).CheckAlloc(t) })
}

func FuzzTranscriptCodec(f *testing.F) { transcriptFamily(f).Fuzz(f, "FuzzTranscriptCodec") }

// The earlier per-codec test names, each running only its own parts of
// the table.
func TestCodecRoundTrips(t *testing.T) {
	transcriptFamily(t).Check(t, "commitment", "proof", "combine-tier",
		"refuse/next version", "refuse/foreign magic", "refuse/path cut")
}
func TestWriteTranscriptCorpus(t *testing.T) {
	transcriptFamily(t).Check(t, "corpus/FuzzTranscriptCodec")
}

// transcriptFamily's frames are signed by a fixed-seed signer, so the
// corpus regenerates byte for byte.
func transcriptFamily(tb testing.TB) *fuzzcorpus.Family {
	tb.Helper()
	signer, err := sig.NewSigner(bytes.NewReader(make([]byte, 64)))
	if err != nil {
		tb.Fatal(err)
	}
	roster := testRoster(5)
	digests := testDigests(roster)
	tr, err := buildRound(9, [32]byte{7}, roster, digests, signer)
	if err != nil {
		tb.Fatal(err)
	}
	unsigned, err := buildRound(9, [32]byte{}, roster[:1], digests[:1], nil)
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
	proof, err := EncodeProof(pr)
	if err != nil {
		tb.Fatal(err)
	}
	chain := &Chain{round: 3, tip: [32]byte{9}, have: true}
	badChain, err := chain.MarshalBinary()
	if err != nil {
		tb.Fatal(err)
	}
	badChain[len(badChain)-1] = 2
	return &fuzzcorpus.Family{
		Kinds: []fuzzcorpus.Kind{
			{Name: "commitment",
				Encode:  func(v any) ([]byte, error) { return EncodeCommitment(v.(*Commitment)) },
				Decode:  func(p []byte) (any, error) { return DecodeCommitment(p) },
				Samples: []any{&tr.Commitment, &unsigned.Commitment}},
			{Name: "proof",
				Encode:  func(v any) ([]byte, error) { return EncodeProof(v.(*Proof)) },
				Decode:  func(p []byte) (any, error) { return DecodeProof(p) },
				Samples: []any{pr}},
			{Name: "combine-tier",
				Encode:  func(v any) ([]byte, error) { return EncodeCombineTier(v.(*CombineTierMsg)) },
				Decode:  func(p []byte) (any, error) { return DecodeCombineTier(p) },
				Samples: []any{&CombineTierMsg{Commitment: ct.Commitment, Proof: *spr}}},
			{Name: "chain",
				Encode:  func(v any) ([]byte, error) { return v.(*Chain).MarshalBinary() },
				Decode:  func(p []byte) (any, error) { return UnmarshalChain(p) },
				Samples: []any{chain, &Chain{}}},
		},
		Refuse: []fuzzcorpus.Row{
			{Name: "path cut", Payload: proof[:12]},
			{Name: "next version", Payload: []byte{codecMagic, tagCommitment, 0xFF}},
			{Name: "foreign magic", Payload: []byte{0xDC, tagProof, codecVersion}},
			// The tip flag is 0 or 1; another value would re-encode as 1.
			{Name: "chain tip flag 2", Payload: badChain},
		},
		Targets: []fuzzcorpus.Target{{Name: "FuzzTranscriptCodec"}},
	}
}
