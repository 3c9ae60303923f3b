package core

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/fuzzcorpus"
	"repro/internal/sig"
	"repro/internal/transport"
)

// withSig re-attaches a decoded signature to an unsigned encoding (which
// ends in the empty signature blob), so re-encoding does not need the
// signing key.
func withSig(unsigned, sg []byte) []byte {
	return transport.AppendBlob(unsigned[:len(unsigned)-2:len(unsigned)-2], sg)
}

// recodeHandshake decodes p with whichever handshake decoder claims its
// tag — serverPub pinned or not — and re-encodes what it accepted.
func recodeHandshake(p, serverPub []byte) ([]byte, error) {
	if len(p) < 2 {
		return nil, errors.New("no tag")
	}
	switch p[1] {
	case tagRoundOffer:
		o, err := decodeRoundOffer(p, serverPub)
		if err != nil {
			return nil, err
		}
		return withSig(encodeRoundOffer(o, nil), o.Signature), nil
	case tagRoundAck:
		a, err := decodeRoundAck(p)
		if err != nil {
			return nil, err
		}
		return encodeRoundAck(a), nil
	default:
		c, err := decodeRoundCommit(p, serverPub)
		if err != nil {
			return nil, err
		}
		return withSig(encodeRoundCommit(c, nil), c.Signature), nil
	}
}

// handshakeCodecSeeds: round-trip encodings of every message, signed and
// unsigned, each also truncated by a byte and extended by one, plus the
// non-canonical frames the decoders must refuse — unknown flag bits, an
// unsorted and a duplicated divergent section, a divergent count the
// payload cannot carry, and an otherwise valid offer from the previous
// handshake version (a build that expands masks differently).
func handshakeCodecSeeds(tb testing.TB) (seeds, nonCanonical [][]byte, serverPub []byte) {
	tb.Helper()
	signer, err := sig.NewSigner(bytes.NewReader(bytes.Repeat([]byte{0x5A}, 64)))
	if err != nil {
		tb.Fatal(err)
	}
	hash := [32]byte{1, 2, 3}
	offer := RoundOffer{Round: 7, Protocol: ProtocolLightSecAgg, Resume: true, Ratchet: 2, RosterHash: hash, NoiseEpoch: 1}
	commit := RoundCommit{Round: 7, Resume: true, Ratchet: 2, NoiseEpoch: 1, Divergent: []uint64{3, 9, 12}}
	valid := [][]byte{
		encodeRoundOffer(offer, nil), encodeRoundOffer(offer, signer),
		encodeRoundOffer(RoundOffer{Round: 1}, nil),
		encodeRoundAck(RoundAck{Round: 7, From: 4, CanResume: true, HasHash: true, StateHash: hash, NextRatchet: 2}),
		encodeRoundAck(RoundAck{Round: 7, From: 5, Tainted: true}),
		encodeRoundCommit(commit, nil), encodeRoundCommit(commit, signer),
		encodeRoundCommit(RoundCommit{Round: 8}, signer),
	}
	for _, p := range valid {
		seeds = append(seeds, p, p[:len(p)-1], append(append([]byte(nil), p...), 0x00))
	}
	flip := func(p []byte, at int, bits byte) []byte {
		q := append([]byte(nil), p...)
		q[at] |= bits
		return q
	}
	unsorted := encodeRoundCommit(RoundCommit{Round: 7, Resume: true, Divergent: []uint64{9, 3}}, nil)
	duplicated := encodeRoundCommit(RoundCommit{Round: 7, Resume: true, Divergent: []uint64{3, 3}}, nil)
	lying := append([]byte(nil), valid[5]...)
	lying[28], lying[29] = 0xFF, 0xFF
	older := append([]byte(nil), valid[0]...)
	older[2] = handshakeVersion - 1
	nonCanonical = [][]byte{
		flip(valid[0], 12, 0x80), flip(valid[3], 19, 0x08), flip(valid[5], 11, 0x04),
		unsorted, duplicated, lying, older,
	}
	return append(seeds, nonCanonical...), nonCanonical, signer.Public()
}

// TestHandshakeCodecRejectsNonCanonical: each refused frame above is one
// flag bit or one id away from a frame the decoders accept.
func TestHandshakeCodecRejectsNonCanonical(t *testing.T) {
	_, nonCanonical, _ := handshakeCodecSeeds(t)
	for i, p := range nonCanonical {
		if _, err := recodeHandshake(p, nil); err == nil {
			t.Errorf("non-canonical frame %d accepted: %x", i, p)
		}
	}
}

// FuzzHandshakeCodec: the handshake decoders — the last parsers a peer
// reaches before any round stage — must never panic or allocate from a
// count the payload cannot carry, and every payload one of them accepts,
// with the server key pinned or not, must re-encode to the same bytes: no
// accepted frame carries slack (unknown flag bits, a reordered or repeated
// divergent section) a peer could hide a second meaning in.
func FuzzHandshakeCodec(f *testing.F) {
	seeds, _, serverPub := handshakeCodecSeeds(f)
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		for _, pub := range [][]byte{nil, serverPub} {
			re, err := recodeHandshake(p, pub)
			if err != nil {
				continue // malformed input rejected: the property holds
			}
			if !bytes.Equal(re, p) {
				t.Fatalf("accepted payload is not canonical:\n in %x\nout %x", p, re)
			}
		}
	})
}

func TestWriteHandshakeCorpus(t *testing.T) {
	seeds, _, _ := handshakeCodecSeeds(t)
	fuzzcorpus.Check(t, "FuzzHandshakeCodec", seeds)
}
