package secagg

import (
	"fmt"

	"repro/internal/field"
	"repro/internal/shamir"
	"repro/internal/transport"
)

// Binary codec for the stage-1 ShareBundle — the plaintext sealed inside
// the share-distribution AEAD — in the transport.Reader/Writer idiom, with
// the version byte in the place of the family's tag.
//
// Layout (integers little-endian; share as in PROTOCOL.md "Shared layouts"):
//
//	[magic 0xDB][version][From:8][To:8]
//	[MaskKey: numKeyChunks × share]
//	[SelfSeed: share]
//	[n:4][NoiseSeeds: n × share]
//
// The magic byte keeps the family disjoint from the repo's other framed
// encodings (0xD0 core codec, 0xDA persisted sessions, 0xDC combiner
// frames, 0xDD transcript frames); anything that does not lead with it is
// rejected. The version byte gates structural evolution: a peer on
// another version fails loudly.
const (
	bundleMagic   = 0xDB
	bundleVersion = 1

	// maxBundleNoiseSeeds bounds the decoded noise-share count against a
	// hostile length prefix; real bundles carry XNoise tolerance T seeds
	// (single digits).
	maxBundleNoiseSeeds = 1 << 16

	bundleFixedLen = 2 + 8 + 8 + numKeyChunks*16 + 16 + 4
)

// WriteShare appends one Shamir share, [X:8][Y:8] as canonical field
// elements: the share layout of the bundle here and of the unmask and
// noise-share messages on the wire.
func WriteShare(w *transport.Writer, s shamir.Share) {
	w.Uint64(s.X.Uint64())
	w.Uint64(s.Y.Uint64())
}

// ReadShare decodes one WriteShare share.
func ReadShare(r *transport.Reader) shamir.Share {
	return shamir.Share{X: ReadElement(r), Y: ReadElement(r)}
}

// ReadElement decodes one field element. A word that is not canonical
// (≥ p) is refused: reducing it would give the payload a second encoding.
func ReadElement(r *transport.Reader) field.Element {
	v := r.Uint64()
	if v >= field.Modulus {
		r.Fail(fmt.Errorf("field element %d not canonical", v))
		return 0
	}
	return field.Element(v)
}

// encodeBundle leases its payload from the frame list: the caller
// releases it once sealed.
func encodeBundle(b ShareBundle) ([]byte, error) {
	w := transport.NewWriter(bundleMagic, bundleVersion, bundleFixedLen-2+16*len(b.NoiseSeeds))
	w.Uint64(b.From)
	w.Uint64(b.To)
	for _, s := range b.MaskKey {
		WriteShare(w, s)
	}
	WriteShare(w, b.SelfSeed)
	w.Count(len(b.NoiseSeeds), maxBundleNoiseSeeds)
	for _, s := range b.NoiseSeeds {
		WriteShare(w, s)
	}
	return w.Done()
}

func decodeBundle(p []byte) (ShareBundle, error) {
	r := transport.NewReader(p, bundleMagic, bundleVersion)
	b := ShareBundle{From: r.Uint64(), To: r.Uint64()}
	for i := range b.MaskKey {
		b.MaskKey[i] = ReadShare(r)
	}
	b.SelfSeed = ReadShare(r)
	if n := r.Count(16, maxBundleNoiseSeeds); n > 0 {
		b.NoiseSeeds = make([]shamir.Share, n)
		for i := range b.NoiseSeeds {
			b.NoiseSeeds[i] = ReadShare(r)
		}
	}
	if err := r.Done(); err != nil {
		return ShareBundle{}, fmt.Errorf("secagg: share bundle: %w", err)
	}
	return b, nil
}
