package lightsecagg

import (
	"encoding/binary"
	"fmt"

	"repro/internal/field"
)

// The one binary layout of the substrate: the AEAD plaintext of a coded
// share, which a client opens from an envelope a peer sealed, so it is
// decoded like a frame from the network. Every other message of the round
// travels typed through the in-process loop (run.go).
//
//	share vec: [n:4][S: n×8]   (little-endian; every word canonical, < p)
//
// The declared count is checked against the cap and the bytes that remain
// before anything is written, trailing bytes are rejected, and every
// element word must be canonical, so an accepted share has exactly one
// encoding.

// maxLSAElems caps a share vector's declared length so a hostile length
// prefix cannot force a huge write; sized like core's cap to the
// transport's frame limit.
const maxLSAElems = 1 << 25

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

// elemsFromLE reads len(dst) little-endian words into dst and refuses a
// word that is not a canonical element (≥ p), as secagg.ReadElement does:
// an accepted payload has exactly one encoding.
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
