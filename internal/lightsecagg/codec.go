package lightsecagg

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/engine"
	"repro/internal/field"
	"repro/internal/transport"
)

// Binary payload codec for the volume wire messages, following the
// magic/tag layout of internal/core/codec.go (the packages cannot share
// code directly — core imports lightsecagg for the RunRound substrate —
// but they share the transport slab helpers and the same conventions).
//
// Every message of the round rides these layouts: the masked uploads and
// the result broadcast (dim-length element vectors), the n·(n−1) sealed
// share envelopes (LightSecAgg's structurally heavy offline phase —
// (n−1)·d/(U−T) elements per client), the aggregate shares of the one-shot
// recovery, and the two small control messages (roster, survivor set). The
// stage-0 advertisement is the raw 32-byte channel public key, unframed.
//
// Layout (all integers little-endian):
//
//	masked:    [magic][tagMasked][From:8][n:4][Y: n×8]
//	aggshare:  [magic][tagAggShare][From:8][n:4][S: n×8]
//	result:    [magic][tagLSAResult][n:4][Sum: n×8]
//	envelopes: [magic][tagEnvelopes][n:4]
//	           n × ([From:8][To:8][ctLen:4][Ciphertext: ctLen bytes])
//	roster:    [magic][tagRoster][n:4] n × ([From:8][pubLen:2][Pub])
//	survivors: [magic][tagSurvivors][n:4][ids: n×8]
//	share vec: [n:4][S: n×8]   (AEAD plaintext inside an envelope)
//
// Every count is checked against the bytes that remain before anything is
// allocated, trailing bytes are rejected, and every element word must be
// canonical (< p), so an accepted payload has exactly one encoding.
const (
	lsaMagic     = 0xD1
	tagMasked    = 0x01
	tagAggShare  = 0x02
	tagLSAResult = 0x03
	tagEnvelopes = 0x04
	tagRoster    = 0x05
	tagSurvivors = 0x06
)

// maxPubBytes caps a roster entry's channel key (32 bytes today).
const maxPubBytes = 1 << 10

// wireCodec is the substrate's wire format: the typed stage messages of
// program.go to and from frame payloads, by frame tag. The stage-0
// advertisement is the raw channel key; its sender is the link's to name.
// Both directions copy the key: the link releases a payload once it is
// sent or decoded (engine.MsgCodec).
var wireCodec = engine.Codec{
	wireAdvertise: engine.MsgOf(
		func(m AdvertiseMsg) ([]byte, error) { return bytes.Clone(m.CipherPub), nil },
		func(p []byte) (AdvertiseMsg, error) { return AdvertiseMsg{CipherPub: bytes.Clone(p)}, nil }),
	wireRoster:    engine.MsgOf(encodeRoster, decodeRoster),
	wireShares:    engine.MsgOf(encodeEnvelopes, decodeEnvelopes),
	wireDeliver:   engine.MsgOf(encodeEnvelopes, decodeEnvelopes),
	wireMasked:    engine.MsgOf(encodeMasked, decodeMasked),
	wireSurvivors: engine.MsgOf(encodeSurvivors, decodeSurvivors),
	wireAggShare:  engine.MsgOf(encodeAggShare, decodeAggShare),
	wireResult:    engine.MsgOf(encodeLSAResult, decodeLSAResult),
}

// maxLSAElems caps decoded element-slab lengths so a hostile length prefix
// cannot force a huge allocation; sized like core's cap to the transport's
// frame limit.
const maxLSAElems = 1 << 25

// maxEnvelopes and maxEnvelopeCtBytes bound the envelope list decode the
// same way core bounds its share bundles.
const (
	maxEnvelopes       = 1 << 20
	maxEnvelopeCtBytes = 1 << 24
)

// appendElems appends the [n:4][n×8] "share vec" layout of xs, the AEAD
// plaintext of one coded share.
func appendElems(dst []byte, xs []field.Element) ([]byte, error) {
	if len(xs) > maxLSAElems {
		return nil, fmt.Errorf("lightsecagg: slab of %d elements exceeds wire cap", len(xs))
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(xs)))
	for _, x := range xs {
		dst = binary.LittleEndian.AppendUint64(dst, x.Uint64())
	}
	return dst, nil
}

// elemsFromLE reads len(dst) borrowed little-endian words into dst — the
// decoders' one pass from payload bytes to the elements they return — and
// refuses a word that is not a canonical element (≥ p), as core's element
// does: an accepted payload has exactly one encoding.
func elemsFromLE(dst []field.Element, words []byte) error {
	for i := range dst {
		v := binary.LittleEndian.Uint64(words[8*i:])
		if v >= field.Modulus {
			return fmt.Errorf("lightsecagg: field element %d not canonical", v)
		}
		dst[i] = field.Element(v)
	}
	return nil
}

// decodeShareInto decodes the AEAD plaintext of one coded share (the
// "share vec" layout) into dst, whose length is the share length the round
// expects. The declared count is checked against the cap, the bytes
// present and dst before anything is written; trailing bytes and a word
// that is not a canonical element are rejected.
func decodeShareInto(dst []field.Element, p []byte) error {
	if len(p) < 4 {
		return fmt.Errorf("lightsecagg: share vector header truncated")
	}
	n, words := int(binary.LittleEndian.Uint32(p)), p[4:]
	switch {
	case n > maxLSAElems:
		return fmt.Errorf("lightsecagg: declared share vector of %d elements exceeds wire cap", n)
	case len(words) < 8*n:
		return fmt.Errorf("lightsecagg: share vector declares %d elements, carries %d bytes", n, len(words))
	case len(words) > 8*n:
		return fmt.Errorf("lightsecagg: share vector: %d trailing bytes", len(words)-8*n)
	case n != len(dst):
		return fmt.Errorf("lightsecagg: share has length %d, want %d", n, len(dst))
	}
	return elemsFromLE(dst, words)
}

func writeElems(w *transport.Writer, xs []field.Element) {
	w.Count(len(xs), maxLSAElems)
	for _, x := range xs {
		w.Uint64(x.Uint64())
	}
}

func readElems(r *transport.Reader) []field.Element {
	words := r.WordsLE(maxLSAElems)
	out := make([]field.Element, len(words)/8)
	if err := elemsFromLE(out, words); err != nil {
		r.Fail(err)
	}
	return out
}

// encodeFromVector encodes the shared [From][slab] shape of masked and
// aggregate-share messages.
func encodeFromVector(tag byte, from uint64, xs []field.Element) ([]byte, error) {
	w := transport.NewWriter(lsaMagic, tag, 8+4+8*len(xs))
	w.Uint64(from)
	writeElems(w, xs)
	return w.Done()
}

func decodeFromVector(tag byte, p []byte) (uint64, []field.Element, error) {
	r := transport.NewReader(p, lsaMagic, tag)
	from, xs := r.Uint64(), readElems(r)
	return from, xs, r.Done()
}

func encodeMasked(m MaskedMsg) ([]byte, error) {
	return encodeFromVector(tagMasked, m.From, m.Y)
}

func decodeMasked(p []byte) (MaskedMsg, error) {
	from, y, err := decodeFromVector(tagMasked, p)
	if err != nil {
		return MaskedMsg{}, fmt.Errorf("lightsecagg: masked input: %w", err)
	}
	return MaskedMsg{From: from, Y: y}, nil
}

func encodeAggShare(m AggShareMsg) ([]byte, error) {
	return encodeFromVector(tagAggShare, m.From, m.S)
}

func decodeAggShare(p []byte) (AggShareMsg, error) {
	from, s, err := decodeFromVector(tagAggShare, p)
	if err != nil {
		return AggShareMsg{}, fmt.Errorf("lightsecagg: aggregate share: %w", err)
	}
	return AggShareMsg{From: from, S: s}, nil
}

func encodeLSAResult(sum []field.Element) ([]byte, error) {
	w := transport.NewWriter(lsaMagic, tagLSAResult, 4+8*len(sum))
	writeElems(w, sum)
	return w.Done()
}

func decodeLSAResult(p []byte) ([]field.Element, error) {
	r := transport.NewReader(p, lsaMagic, tagLSAResult)
	sum := readElems(r)
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("lightsecagg: result: %w", err)
	}
	return sum, nil
}

// encodeEnvelopes encodes a sealed share list (uplink: one sender's
// envelopes; downlink: one recipient's delivery).
func encodeEnvelopes(envs []Envelope) ([]byte, error) {
	size := 4
	for _, e := range envs {
		size += 8 + 8 + 4 + len(e.Ciphertext)
	}
	w := transport.NewWriter(lsaMagic, tagEnvelopes, size)
	w.Count(len(envs), maxEnvelopes)
	for _, e := range envs {
		w.Uint64(e.From)
		w.Uint64(e.To)
		w.Bytes(e.Ciphertext, maxEnvelopeCtBytes)
	}
	return w.Done()
}

// decodeEnvelopes decodes a sealed share list. Counts the remaining bytes
// cannot carry are rejected before the slice allocation (each envelope
// costs at least its 20-byte header).
func decodeEnvelopes(p []byte) ([]Envelope, error) {
	r := transport.NewReader(p, lsaMagic, tagEnvelopes)
	var envs []Envelope
	if n := r.Count(20, maxEnvelopes); n > 0 {
		envs = make([]Envelope, n)
		for i := range envs {
			envs[i] = Envelope{From: r.Uint64(), To: r.Uint64(), Ciphertext: r.Bytes(maxEnvelopeCtBytes)}
		}
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return envs, nil
}

// encodeRoster encodes the stage-1 roster broadcast.
func encodeRoster(roster []AdvertiseMsg) ([]byte, error) {
	w := transport.NewWriter(lsaMagic, tagRoster, 4+len(roster)*(8+2+32))
	w.Count(len(roster), maxEnvelopes)
	for _, m := range roster {
		w.Uint64(m.From)
		w.Blob(m.CipherPub, maxPubBytes)
	}
	return w.Done()
}

// decodeRoster decodes the stage-1 roster broadcast (each entry costs at
// least its 10-byte header).
func decodeRoster(p []byte) ([]AdvertiseMsg, error) {
	r := transport.NewReader(p, lsaMagic, tagRoster)
	var roster []AdvertiseMsg
	if n := r.Count(10, maxEnvelopes); n > 0 {
		roster = make([]AdvertiseMsg, n)
		for i := range roster {
			roster[i] = AdvertiseMsg{From: r.Uint64(), CipherPub: r.Blob(maxPubBytes)}
		}
	}
	return roster, r.Done()
}

// encodeSurvivors encodes the stage-5 survivor set.
func encodeSurvivors(ids []uint64) ([]byte, error) {
	w := transport.NewWriter(lsaMagic, tagSurvivors, 4+8*len(ids))
	w.Words(ids, maxLSAElems)
	return w.Done()
}

func decodeSurvivors(p []byte) ([]uint64, error) {
	r := transport.NewReader(p, lsaMagic, tagSurvivors)
	ids := r.Words(maxLSAElems)
	return ids, r.Done()
}
