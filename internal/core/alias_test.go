package core

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/combine"
	"repro/internal/ring"
	"repro/internal/secagg"
	"repro/internal/sig"
	"repro/internal/transcript"
)

// aliasesPayload decodes payload, scribbles over it the way a -race
// build's transport.Release does, and reports whether the decoded value
// changed — i.e. whether the decoder kept an alias into the frame.
func aliasesPayload(t *testing.T, name string, payload []byte, decode func([]byte) (any, error)) bool {
	t.Helper()
	want, err := decode(bytes.Clone(payload))
	if err != nil {
		t.Fatalf("%s: golden payload does not decode: %v", name, err)
	}
	frame := bytes.Clone(payload)
	got, err := decode(frame)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for i := range frame {
		frame[i] = 0xDB
	}
	return !reflect.DeepEqual(got, want)
}

// TestDecodersDoNotAliasPayload: the engine releases a frame the moment it
// is decoded (client side) or applied (server side), so a decoded message
// must own all it holds. Every tag of the SecAgg wire codec, the handshake
// and the combiner and transcript codecs is checked; the masked input is
// the one documented exception — it borrows, and secagg.Server.AddMasked
// is done with it before Collect releases the frame — and the test
// asserts that it does, so the exception stays deliberate. (lightsecagg
// checks its own codec under the same name.)
func TestDecodersDoNotAliasPayload(t *testing.T) {
	samples := append(controlSamples(),
		controlSample{secagg.TagShares, []secagg.EncryptedShareMsg{
			{From: 1, To: 2, Ciphertext: bytes.Repeat([]byte{0xAA}, 40)}, {From: 1, To: 3, Ciphertext: []byte{1}}}},
		controlSample{secagg.TagDeliver, []secagg.EncryptedShareMsg{{From: 2, To: 1, Ciphertext: []byte{9, 8, 7}}}},
		controlSample{secagg.TagMasked, secagg.MaskedInputMsg{From: 5, Y: []uint64{1, 2, 3, 1 << 19}}},
		controlSample{secagg.TagUnmask, sampleUnmaskMsg()},
		controlSample{secagg.TagResult, secagg.Result{Sum: []uint64{4, 5, 6}, Survivors: []uint64{1, 2},
			Dropped: []uint64{3}, RemovedComponents: []int{1, 2}}},
	)
	covered := map[int]bool{}
	for _, s := range samples {
		covered[s.tag] = true
		p, err := wireCodec[s.tag].Encode(s.msg)
		if err != nil {
			t.Fatalf("tag %d: %v", s.tag, err)
		}
		aliases := aliasesPayload(t, "wire tag", p, wireCodec[s.tag].Decode)
		if borrows := s.tag == secagg.TagMasked; aliases != borrows {
			t.Errorf("wire tag %d: aliases its payload = %v, want %v", s.tag, aliases, borrows)
		}
	}
	for tag := range wireCodec {
		if !covered[tag] {
			t.Errorf("wire tag %d has no sample", tag)
		}
	}

	signer, err := sig.NewSigner(bytes.NewReader(bytes.Repeat([]byte{0x5A}, 64)))
	if err != nil {
		t.Fatal(err)
	}
	must := func(p []byte, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	roster := []transcript.RosterEntry{
		{ID: 1, CipherPub: bytes.Repeat([]byte{1}, 32), MaskPub: bytes.Repeat([]byte{2}, 32)},
		{ID: 2, CipherPub: bytes.Repeat([]byte{3}, 32), MaskPub: bytes.Repeat([]byte{4}, 32)},
		{ID: 3, CipherPub: bytes.Repeat([]byte{5}, 32), MaskPub: bytes.Repeat([]byte{6}, 32)},
	}
	digests := make([]transcript.InputDigest, len(roster))
	for i, e := range roster {
		digests[i] = transcript.InputDigest{ID: e.ID, Digest: transcript.Digest([]uint64{e.ID})}
	}
	tr, err := transcript.Build(9, [32]byte{7}, roster, digests, signer)
	if err != nil {
		t.Fatal(err)
	}
	proof, err := tr.ProofFor(2)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := transcript.NewRecorder(signer).BuildCombineRound(9, []transcript.ShardRoot{{Shard: 0, Root: [32]byte{1}}, {Shard: 1, Root: [32]byte{2}}})
	if err != nil {
		t.Fatal(err)
	}
	shardProof, err := ct.ProofFor(1)
	if err != nil {
		t.Fatal(err)
	}
	hash := [32]byte{1, 2, 3}
	pub := signer.Public()
	for _, c := range []struct {
		name    string
		payload []byte
		decode  func([]byte) (any, error)
	}{
		{"round offer", encodeRoundOffer(RoundOffer{Round: 7, Resume: true, Ratchet: 2, RosterHash: hash}, signer),
			func(p []byte) (any, error) { return decodeRoundOffer(p, pub) }},
		{"round ack", encodeRoundAck(RoundAck{Round: 7, From: 4, CanResume: true, HasHash: true, StateHash: hash}),
			func(p []byte) (any, error) { return decodeRoundAck(p) }},
		{"round commit", encodeRoundCommit(RoundCommit{Round: 7, Resume: true, Divergent: []uint64{3, 9}}, signer),
			func(p []byte) (any, error) { return decodeRoundCommit(p, pub) }},
		{"shard partial", must(combine.EncodePartial(combine.Partial{Shard: 3, Round: 12,
			Sum: ring.Vector{Bits: 16, Data: []uint64{5, 6, 7}}, Survivors: []uint64{31, 32}, Dropped: []uint64{33},
			RemovedComponents: []int{0, 2}, HasTranscript: true, TranscriptRoot: hash})),
			func(p []byte) (any, error) { return combine.DecodePartial(p) }},
		{"combine report", must(combine.EncodeReport(&combine.RoundReport{Round: 12,
			Sum: ring.Vector{Bits: 16, Data: []uint64{9}}, Contributing: []uint64{0, 1}, Missing: []uint64{2},
			Degraded: true, Survivors: []uint64{1, 2, 3}, Dropped: []uint64{4},
			RemovedComponents: map[uint64][]int{1: {0, 1}}, StaleRounds: map[uint64]uint64{2: 11}})),
			func(p []byte) (any, error) { return combine.DecodeReport(p) }},
		{"transcript commitment", must(transcript.EncodeCommitment(&tr.Commitment)),
			func(p []byte) (any, error) { return transcript.DecodeCommitment(p) }},
		{"transcript proof", must(transcript.EncodeProof(proof)),
			func(p []byte) (any, error) { return transcript.DecodeProof(p) }},
		{"combine tier", must(transcript.EncodeCombineTier(&transcript.CombineTierMsg{Commitment: ct.Commitment, Proof: *shardProof})),
			func(p []byte) (any, error) { return transcript.DecodeCombineTier(p) }},
	} {
		if aliasesPayload(t, c.name, c.payload, c.decode) {
			t.Errorf("%s: the decoded value aliases its payload", c.name)
		}
	}
}
