package secagg

import (
	"encoding/binary"
	"fmt"

	"repro/internal/field"
	"repro/internal/shamir"
)

// Binary codec for the stage-1 ShareBundle — the plaintext sealed inside
// the share-distribution AEAD. A reflective encoding costs ~32µs and ~230
// allocations per edge (type dictionary, varint framing) — ≈130ms of pure
// encoding per round at 64 clients; the fixed layout below is a single
// allocation each way.
//
// Layout (integers little-endian, field elements as raw uint64):
//
//	[magic 0xDB][version][From:8][To:8]
//	[MaskKey: numKeyChunks × (X:8, Y:8)]
//	[SelfSeed: X:8, Y:8]
//	[n:4][NoiseSeeds: n × (X:8, Y:8)]
//
// The magic byte keeps the family disjoint from the repo's other framed
// encodings (0xD0 core codec, 0xDA persisted sessions, 0xDC combiner
// frames); anything that does not lead with it is rejected. The version
// byte gates structural evolution: a peer on another version fails loudly.
const (
	bundleMagic   = 0xDB
	bundleVersion = 1

	// maxBundleNoiseSeeds bounds the decoded noise-share count against a
	// hostile length prefix; real bundles carry XNoise tolerance T seeds
	// (single digits).
	maxBundleNoiseSeeds = 1 << 16

	bundleFixedLen = 2 + 8 + 8 + numKeyChunks*16 + 16 + 4
)

func appendShare(dst []byte, s shamir.Share) []byte {
	var b [16]byte
	binary.LittleEndian.PutUint64(b[0:], uint64(s.X))
	binary.LittleEndian.PutUint64(b[8:], uint64(s.Y))
	return append(dst, b[:]...)
}

func decodeShare(src []byte) shamir.Share {
	return shamir.Share{
		X: field.New(binary.LittleEndian.Uint64(src[0:])),
		Y: field.New(binary.LittleEndian.Uint64(src[8:])),
	}
}

func encodeBundle(b ShareBundle) ([]byte, error) {
	if len(b.NoiseSeeds) > maxBundleNoiseSeeds {
		return nil, fmt.Errorf("secagg: bundle carries %d noise seeds, cap %d", len(b.NoiseSeeds), maxBundleNoiseSeeds)
	}
	out := make([]byte, 0, bundleFixedLen+16*len(b.NoiseSeeds))
	out = append(out, bundleMagic, bundleVersion)
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[0:], b.From)
	binary.LittleEndian.PutUint64(hdr[8:], b.To)
	out = append(out, hdr[:]...)
	for _, s := range b.MaskKey {
		out = appendShare(out, s)
	}
	out = appendShare(out, b.SelfSeed)
	var cnt [4]byte
	binary.LittleEndian.PutUint32(cnt[:], uint32(len(b.NoiseSeeds)))
	out = append(out, cnt[:]...)
	for _, s := range b.NoiseSeeds {
		out = appendShare(out, s)
	}
	return out, nil
}

func decodeBundle(p []byte) (ShareBundle, error) {
	if len(p) == 0 {
		return ShareBundle{}, fmt.Errorf("secagg: empty bundle")
	}
	if p[0] != bundleMagic {
		return ShareBundle{}, fmt.Errorf("secagg: not a binary bundle")
	}
	if len(p) < bundleFixedLen {
		return ShareBundle{}, fmt.Errorf("secagg: bundle truncated: %d bytes", len(p))
	}
	if v := p[1]; v != bundleVersion {
		return ShareBundle{}, fmt.Errorf("secagg: bundle version %d, want %d", v, bundleVersion)
	}
	var b ShareBundle
	b.From = binary.LittleEndian.Uint64(p[2:])
	b.To = binary.LittleEndian.Uint64(p[10:])
	off := 18
	for i := range b.MaskKey {
		b.MaskKey[i] = decodeShare(p[off:])
		off += 16
	}
	b.SelfSeed = decodeShare(p[off:])
	off += 16
	n := int(binary.LittleEndian.Uint32(p[off:]))
	off += 4
	if n > maxBundleNoiseSeeds {
		return ShareBundle{}, fmt.Errorf("secagg: bundle declares %d noise seeds, cap %d", n, maxBundleNoiseSeeds)
	}
	if len(p)-off != 16*n {
		return ShareBundle{}, fmt.Errorf("secagg: bundle declares %d noise seeds over %d trailing bytes", n, len(p)-off)
	}
	if n > 0 {
		b.NoiseSeeds = make([]shamir.Share, n)
		for i := range b.NoiseSeeds {
			b.NoiseSeeds[i] = decodeShare(p[off:])
			off += 16
		}
	}
	return b, nil
}
