package core

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/field"
	"repro/internal/fuzzcorpus"
	"repro/internal/secagg"
	"repro/internal/shamir"
	"repro/internal/sig"
	"repro/internal/transport"
)

// The conformance tables of the SecAgg wire codec (codec.go, control.go)
// and the re-key handshake (handshake.go), run by fuzzcorpus. CI runs a
// -fuzztime smoke over FuzzControlCodec, FuzzShareBundleCodec and
// FuzzHandshakeCodec; after a deliberate frame change, update their
// corpora with WRITE_FUZZ_CORPUS=1 go test -run TestCodecConformance.

func TestCodecConformance(t *testing.T) {
	t.Run("wire", func(t *testing.T) { wireFamily(t).Check(t) })
	t.Run("handshake", func(t *testing.T) { handshakeFamily(t).Check(t) })
}

// TestCodecAllocBound bounds what each decoder allocates on every refusal
// row, sample and checked-in corpus seed (fuzzcorpus.Family.CheckAlloc);
// the fuzz target enforces the same bound on every input it tries. It
// reads a process-wide counter, so it does not run in parallel.
func TestCodecAllocBound(t *testing.T) {
	t.Run("wire", func(t *testing.T) { wireFamily(t).CheckAlloc(t) })
	t.Run("handshake", func(t *testing.T) { handshakeFamily(t).CheckAlloc(t) })
}

func FuzzControlCodec(f *testing.F)     { wireFamily(f).Fuzz(f, "FuzzControlCodec") }
func FuzzShareBundleCodec(f *testing.F) { wireFamily(f).Fuzz(f, "FuzzShareBundleCodec") }
func FuzzHandshakeCodec(f *testing.F)   { handshakeFamily(f).Fuzz(f, "FuzzHandshakeCodec") }

// The earlier per-codec test names, each running only its own parts of
// the table.
func TestMaskedInputCodecRoundTrip(t *testing.T) { wireFamily(t).Check(t, "masked") }
func TestCodecRejectsMalformed(t *testing.T)     { wireFamily(t).Check(t, "refuse/masked header only") }
func TestResultCodecRoundTrip(t *testing.T)      { wireFamily(t).Check(t, "result") }
func TestShareMsgsCodecRoundTrip(t *testing.T)   { wireFamily(t).Check(t, "shares", "deliver") }
func TestShareMsgsCodecRejectsMalformed(t *testing.T) {
	wireFamily(t).Check(t, "refuse/share list header cut", "refuse/lying share count", "refuse/foreign share magic")
}
func TestShareMsgsCodecFuzz(t *testing.T)   { wireFamily(t).Check(t, "corpus/FuzzShareBundleCodec") }
func TestUnmaskCodecRoundTrip(t *testing.T) { wireFamily(t).Check(t, "unmask") }
func TestUnmaskCodecRejectsMalformed(t *testing.T) {
	wireFamily(t).Check(t, "refuse/duplicate mask-key share", "refuse/self-seed share not canonical")
}
func TestUnmaskCodecFuzz(t *testing.T) { wireFamily(t).Check(t, "corpus/FuzzControlCodec") }
func TestControlCodecRoundTrip(t *testing.T) {
	wireFamily(t).Check(t, "advertise", "roster", "consistency-req", "consistency", "unmask-req", "noise-req", "noise")
}
func TestControlCodecRejectsMalformed(t *testing.T) {
	wireFamily(t).Check(t, "refuse/lying roster count", "refuse/descending signature ids", "refuse/duplicate signature id",
		"refuse/noise share not canonical", "refuse/noise section cut", "refuse/foreign magic")
}
func TestWriteControlCorpus(t *testing.T)     { wireFamily(t).Check(t, "corpus/FuzzControlCodec") }
func TestWriteShareBundleCorpus(t *testing.T) { wireFamily(t).Check(t, "corpus/FuzzShareBundleCodec") }

// TestDecodersDoNotAliasPayload runs the kinds of both tables; each
// sample's rows end in the alias check.
func TestDecodersDoNotAliasPayload(t *testing.T) {
	for _, fam := range []*fuzzcorpus.Family{wireFamily(t), handshakeFamily(t)} {
		for _, k := range fam.Kinds {
			fam.Check(t, k.Name)
		}
	}
}
func TestHandshakeCodecRoundTrip(t *testing.T) { handshakeFamily(t).Check(t, "offer", "ack", "commit") }
func TestHandshakeCodecMalformed(t *testing.T) { handshakeFamily(t).Check(t, "offer", "ack", "commit") }
func TestHandshakeCodecRejectsNonCanonical(t *testing.T) {
	handshakeFamily(t).Check(t, "refuse/offer flag bits", "refuse/ack flag bits", "refuse/commit flag bits",
		"refuse/unsorted divergent ids", "refuse/duplicate divergent id", "refuse/lying divergent count", "refuse/previous version")
}
func TestHandshakeCommitDivergentConsistency(t *testing.T) {
	handshakeFamily(t).Check(t, "refuse/partial commit without resume", "refuse/divergent ids without partial flag",
		"refuse/partial flag without divergent ids")
}
func TestWriteHandshakeCorpus(t *testing.T) { handshakeFamily(t).Check(t, "corpus/FuzzHandshakeCodec") }

// TestCodecTagsDistinct: every payload kind of the 0xD0 family — the wire
// codec's, the handshake's and the bare hello — starts with a [magic][tag]
// prefix of its own, so a payload handed to the wrong decoder fails on its
// tag. Kinds that decode one layout by design (SameLayout) share one.
func TestCodecTagsDistinct(t *testing.T) {
	owner := map[[2]byte]string{{codecMagic, tagRoundHello}: "hello"}
	for _, fam := range []*fuzzcorpus.Family{wireFamily(t), handshakeFamily(t)} {
		layout := map[string]string{} // kind → the first kind of its SameLayout group
		for _, g := range fam.SameLayout {
			for _, k := range g {
				layout[k] = g[0]
			}
		}
		for _, k := range fam.Kinds {
			name := k.Name
			if first, ok := layout[name]; ok {
				name = first
			}
			for _, s := range k.Samples {
				p, err := k.Encode(s)
				if err != nil {
					t.Fatal(err)
				}
				prefix := [2]byte{p[0], p[1]}
				if prev, ok := owner[prefix]; ok && prev != name {
					t.Errorf("%s and %s both start with [% x]", prev, name, prefix)
				}
				owner[prefix] = name
			}
		}
	}
}

// wireFamily is the SecAgg wire codec's table: one kind per frame tag of
// wireCodec.
func wireFamily(tb testing.TB) *fuzzcorpus.Family {
	tb.Helper()
	adv := func(id uint64, signed bool) secagg.AdvertiseMsg {
		m := secagg.AdvertiseMsg{From: id, CipherPub: bytes.Repeat([]byte{byte(id)}, 32), MaskPub: bytes.Repeat([]byte{byte(id + 100)}, 32)}
		if signed {
			m.Signature = bytes.Repeat([]byte{0x5A}, 64)
		}
		return m
	}
	bundle := func(base uint64) (b [secagg.NumKeyChunks]shamir.Share) {
		for c := range b {
			b[c] = shamir.Share{X: field.New(base), Y: field.New(base*100 + uint64(c))}
		}
		return b
	}
	must := func(p []byte, err error) []byte {
		tb.Helper()
		if err != nil {
			tb.Fatal(err)
		}
		return p
	}
	kinds := []struct {
		name    string
		tag     int
		samples []any
	}{
		{"advertise", secagg.TagAdvertise, []any{adv(7, true), secagg.AdvertiseMsg{From: 3}}},
		{"roster", secagg.TagRoster, []any{[]secagg.AdvertiseMsg{adv(1, false), adv(2, true), adv(9, false)}, []secagg.AdvertiseMsg(nil)}},
		{"shares", secagg.TagShares, []any{
			[]secagg.EncryptedShareMsg{{From: 1, To: 2, Ciphertext: []byte{0xAA, 0xBB, 0xCC}}, {From: 2, To: 1, Ciphertext: []byte{0x01}}},
			[]secagg.EncryptedShareMsg(nil),
			[]secagg.EncryptedShareMsg{{From: 7, To: 9}},
		}},
		{"deliver", secagg.TagDeliver, []any{[]secagg.EncryptedShareMsg{{From: 2, To: 1, Ciphertext: []byte{9, 8, 7}}}}},
		{"masked", secagg.TagMasked, []any{
			secagg.MaskedInputMsg{From: 5, Y: []uint64{1, 2, 3, 1 << 19}},
			secagg.MaskedInputMsg{From: 1<<63 + 5, Y: []uint64{1, 1<<20 - 1, 7, 0, 9, 11, 13}},
		}},
		{"consistency-req", secagg.TagConsistencyReq, []any{[]uint64{1, 2, 9}}},
		{"consistency", secagg.TagConsistency, []any{secagg.ConsistencyMsg{From: 2, Signature: bytes.Repeat([]byte{0xC3}, 64)}}},
		{"unmask-req", secagg.TagUnmaskReq, []any{
			secagg.UnmaskRequest{U3: []uint64{1, 2, 9}, U4: []uint64{1, 9}, Signatures: map[uint64][]byte{1: {0xAA}, 9: bytes.Repeat([]byte{0xBB}, 64)}},
			secagg.UnmaskRequest{},
		}},
		{"unmask", secagg.TagUnmask, []any{
			secagg.UnmaskMsg{
				From:           1<<63 + 9,
				MaskKeyShares:  map[uint64][secagg.NumKeyChunks]shamir.Share{4: bundle(4), 7: bundle(7)},
				SelfSeedShares: map[uint64]shamir.Share{1: {X: field.New(1), Y: field.New(11)}, 2: {X: field.New(2), Y: field.New(22)}, 3: {X: field.New(3), Y: field.New(33)}},
				OwnNoiseSeeds:  map[int]field.Element{2: field.New(200), 5: field.New(500)},
			},
			secagg.UnmaskMsg{From: 3},
			secagg.UnmaskMsg{From: 4, SelfSeedShares: map[uint64]shamir.Share{9: {X: field.New(9), Y: field.New(90)}}},
		}},
		{"noise-req", secagg.TagNoiseReq, []any{secagg.NoiseShareRequest{U5: []uint64{1, 9}}}},
		{"noise", secagg.TagNoise, []any{
			secagg.NoiseShareMsg{From: 9, Shares: map[uint64]map[int]shamir.Share{
				2: {1: {X: field.New(9), Y: field.New(1234)}, 2: {X: field.New(9), Y: field.New(field.Modulus - 1)}},
				5: {1: {X: field.New(9), Y: field.New(0)}},
			}},
			secagg.NoiseShareMsg{From: 4},
		}},
		{"result", secagg.TagResult, []any{
			secagg.Result{Sum: []uint64{1, 2, 1 << 19, 0}, Survivors: []uint64{2, 3, 5}, Dropped: []uint64{7}, RemovedComponents: []int{2, 3, 4}},
			secagg.Result{Survivors: []uint64{1, 2}},
		}},
	}
	if len(kinds) != len(wireCodec) {
		tb.Fatalf("%d wire kinds for %d frame tags", len(kinds), len(wireCodec))
	}
	fam := &fuzzcorpus.Family{
		SameLayout: [][]string{{"shares", "deliver"}, {"consistency-req", "noise-req"}},
		Targets: []fuzzcorpus.Target{
			{Name: "FuzzControlCodec", Kinds: []string{"advertise", "roster", "masked", "consistency-req",
				"consistency", "unmask-req", "unmask", "noise-req", "noise", "result"}},
			{Name: "FuzzShareBundleCodec", Kinds: []string{"shares", "deliver"}},
		},
	}
	for _, k := range kinds {
		c := wireCodec[k.tag]
		kind := fuzzcorpus.Kind{Name: k.name, Encode: c.Encode, Decode: c.Decode, Samples: k.samples}
		switch k.tag {
		case secagg.TagMasked:
			// The masked input borrows: its words are the frame's own,
			// folded in place by secagg.Server.AddMasked before the frame
			// is released.
			kind.Own = func(v any) any {
				m := v.(secagg.MaskedInputMsg)
				m.Y, _, _ = transport.DecodeUint64sLE(m.YLE, len(m.YLE)/8)
				m.YLE = nil
				return m
			}
		case secagg.TagResult:
			// So does the result's sum, copied into the client's buffer
			// by its Result step before the frame is released.
			kind.Own = func(v any) any {
				res := v.(secagg.Result)
				res.Sum, _, _ = transport.DecodeUint64sLE(res.SumLE, len(res.SumLE)/8)
				res.SumLE = nil
				return res
			}
		}
		fam.Kinds = append(fam.Kinds, kind)
	}

	shareList := must(encodeShareMsgs(kinds[2].samples[0].([]secagg.EncryptedShareMsg)))
	sigs := must(encodeUnmaskRequest(secagg.UnmaskRequest{Signatures: map[uint64][]byte{1: {1}, 2: {2}}}))
	descending := bytes.Clone(sigs)
	descending[2+4+4+4], descending[2+4+4+4+8+3] = 2, 1
	duplicated := bytes.Clone(descending)
	duplicated[2+4+4+4] = 1
	unmask := must(encodeUnmask(kinds[8].samples[0].(secagg.UnmaskMsg)))
	dupTarget := bytes.Clone(unmask)
	copy(dupTarget[14+8+8*elementsPerMaskBundle:], dupTarget[14:14+8])
	noise := must(encodeNoiseShares(secagg.NoiseShareMsg{From: 1, Shares: map[uint64]map[int]shamir.Share{2: {1: {}}}}))
	binary.LittleEndian.PutUint64(noise[len(noise)-8:], ^uint64(0))
	selfSeed := must(encodeUnmask(secagg.UnmaskMsg{From: 1, SelfSeedShares: map[uint64]shamir.Share{2: {}}}))
	binary.LittleEndian.PutUint64(selfSeed[len(selfSeed)-16-4:], field.Modulus)
	fam.Refuse = []fuzzcorpus.Row{
		{Name: "lying roster count", Payload: []byte{codecMagic, tagRoster, 0xFF, 0xFF, 0xFF, 0xFF}},
		{Name: "noise section cut", Payload: []byte{codecMagic, tagNoiseShares, 0, 0, 0, 0, 0, 0, 0, 0}},
		{Name: "foreign magic", Payload: []byte{0xDE, tagAdvertise, 0, 0, 0, 0, 0, 0, 0, 0}},
		{Name: "share list header cut", Payload: shareList[:7]},
		{Name: "lying share count", Payload: []byte{codecMagic, tagShareMsgs, 0xFF, 0xFF, 0xFF, 0xFF}},
		{Name: "foreign share magic", Payload: []byte{0xDE, tagShareMsgs, 0, 0, 0, 0}},
		{Name: "masked header only", Payload: []byte{codecMagic, tagMaskedInput, 0, 0, 0, 0, 0, 0, 0, 0}},
		{Name: "descending signature ids", Payload: descending},
		{Name: "duplicate signature id", Payload: duplicated},
		{Name: "duplicate mask-key share", Payload: dupTarget},
		{Name: "noise share not canonical", Payload: noise},
		{Name: "self-seed share not canonical", Payload: selfSeed},
	}
	return fam
}

// withSig attaches a signature to an unsigned handshake encoding (which
// ends in the empty signature blob): the encoding of a message whose
// signature was made elsewhere.
func withSig(unsigned, sg []byte) []byte {
	return transport.AppendBlob(unsigned[:len(unsigned)-2:len(unsigned)-2], sg)
}

// handshakeFamily is the re-key handshake's table. Offers and commits are
// signed by a fixed-seed signer; a kind's encoder attaches the signature
// its message carries, and its decoder pins no key (the signature checks are
// TestHandshakeCodecRejectsForgeries).
func handshakeFamily(tb testing.TB) *fuzzcorpus.Family {
	tb.Helper()
	signer, err := sig.NewSigner(bytes.NewReader(bytes.Repeat([]byte{0x5A}, 64)))
	if err != nil {
		tb.Fatal(err)
	}
	signed := func(p []byte, decode func([]byte) (any, error)) any {
		tb.Helper()
		v, err := decode(p)
		if err != nil {
			tb.Fatal(err)
		}
		return v
	}
	offer := fuzzcorpus.Kind{Name: "offer",
		Encode: func(v any) ([]byte, error) {
			o := v.(RoundOffer)
			return withSig(encodeRoundOffer(o, nil), o.Signature), nil
		},
		Decode: func(p []byte) (any, error) { return decodeRoundOffer(p, nil) },
	}
	ack := fuzzcorpus.Kind{Name: "ack",
		Encode: func(v any) ([]byte, error) { return encodeRoundAck(v.(RoundAck)), nil },
		Decode: func(p []byte) (any, error) { return decodeRoundAck(p) },
	}
	commit := fuzzcorpus.Kind{Name: "commit",
		Encode: func(v any) ([]byte, error) {
			c := v.(RoundCommit)
			return withSig(encodeRoundCommit(c, nil), c.Signature), nil
		},
		Decode: func(p []byte) (any, error) { return decodeRoundCommit(p, nil) },
	}
	hash := [32]byte{1, 2, 3}
	o := RoundOffer{Round: 7, Protocol: ProtocolSecAggPlus, Resume: true, Ratchet: 2, RosterHash: hash, NoiseEpoch: 1}
	c := RoundCommit{Round: 7, Resume: true, Ratchet: 2, NoiseEpoch: 1, Divergent: []uint64{3, 9, 12}}
	offer.Samples = []any{o, signed(encodeRoundOffer(o, signer), offer.Decode), RoundOffer{Round: 1}}
	ack.Samples = []any{
		RoundAck{Round: 7, From: 4, CanResume: true, HasHash: true, StateHash: hash, NextRatchet: 2},
		RoundAck{Round: 7, From: 5, Tainted: true},
	}
	commit.Samples = []any{c, signed(encodeRoundCommit(c, signer), commit.Decode),
		signed(encodeRoundCommit(RoundCommit{Round: 8}, signer), commit.Decode)}

	flip := func(p []byte, at int, set, clear byte) []byte {
		q := bytes.Clone(p)
		q[at] = q[at]&^clear | set
		return q
	}
	unsignedOffer := encodeRoundOffer(o, nil)
	unsignedCommit := encodeRoundCommit(c, nil)
	lying := bytes.Clone(unsignedCommit)
	lying[28], lying[29] = 0xFF, 0xFF
	older := bytes.Clone(unsignedOffer)
	older[2] = handshakeVersion - 1
	resumeOnly := encodeRoundCommit(RoundCommit{Round: 1, Resume: true, Ratchet: 1}, signer)
	partial := encodeRoundCommit(RoundCommit{Round: 1, Resume: true, Ratchet: 1, Divergent: []uint64{3}}, signer)
	return &fuzzcorpus.Family{
		Kinds: []fuzzcorpus.Kind{offer, ack, commit},
		Refuse: []fuzzcorpus.Row{
			{Name: "offer flag bits", Payload: flip(unsignedOffer, 12, 0x80, 0)},
			{Name: "offer protocol", Payload: flip(unsignedOffer, 11, byte(ProtocolLightSecAgg+1), 0xFF)},
			// LightSecAgg runs in process only (ErrProtocolNotOnWire).
			{Name: "offer lightsecagg protocol", Payload: flip(unsignedOffer, 11, byte(ProtocolLightSecAgg), 0xFF)},
			{Name: "ack flag bits", Payload: flip(encodeRoundAck(ack.Samples[0].(RoundAck)), 19, 0x08, 0)},
			{Name: "commit flag bits", Payload: flip(unsignedCommit, 11, 0x04, 0)},
			{Name: "unsorted divergent ids", Payload: encodeRoundCommit(RoundCommit{Round: 7, Resume: true, Divergent: []uint64{9, 3}}, nil)},
			{Name: "duplicate divergent id", Payload: encodeRoundCommit(RoundCommit{Round: 7, Resume: true, Divergent: []uint64{3, 3}}, nil)},
			{Name: "lying divergent count", Payload: lying},
			{Name: "previous version", Payload: older},
			// The commit's divergent section and its flags must agree.
			{Name: "partial commit without resume", Payload: flip(partial, 11, 0, 1)},
			{Name: "divergent ids without partial flag", Payload: flip(partial, 11, 0, 2)},
			{Name: "partial flag without divergent ids", Payload: flip(resumeOnly, 11, 2, 0)},
		},
		Targets: []fuzzcorpus.Target{{Name: "FuzzHandshakeCodec"}},
	}
}
