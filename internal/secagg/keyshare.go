package secagg

import (
	"fmt"

	"repro/internal/field"
	"repro/internal/shamir"
)

// numKeyChunks is the number of field elements needed to carry a 32-byte
// X25519 secret key: 5 chunks of up to 7 bytes each (56 bits < 61-bit
// field) cover 35 ≥ 32 bytes.
const numKeyChunks = 5

// NumKeyChunks is the exported chunk count: the wire codec of UnmaskMsg
// (internal/core) fixes its binary layout to one share per key chunk.
const NumKeyChunks = numKeyChunks

const keyChunkBytes = 7

// bytesToChunks packs a 32-byte secret into field elements.
func bytesToChunks(secret [32]byte) [numKeyChunks]field.Element {
	var out [numKeyChunks]field.Element
	for i := 0; i < numKeyChunks; i++ {
		var v uint64
		for j := 0; j < keyChunkBytes; j++ {
			idx := i*keyChunkBytes + j
			if idx >= len(secret) {
				break
			}
			v |= uint64(secret[idx]) << (8 * j)
		}
		out[i] = field.New(v)
	}
	return out
}

// chunksToBytes unpacks field elements back into the 32-byte secret.
func chunksToBytes(chunks [numKeyChunks]field.Element) [32]byte {
	var out [32]byte
	for i := 0; i < numKeyChunks; i++ {
		v := chunks[i].Uint64()
		for j := 0; j < keyChunkBytes; j++ {
			idx := i*keyChunkBytes + j
			if idx >= len(out) {
				break
			}
			out[idx] = byte(v >> (8 * j))
		}
	}
	return out
}

// reconstructKey recovers the 32-byte secret from at least t share
// bundles. All chunks of one bundle share the same abscissa, so the five
// chunk sharings reconstruct with a single Lagrange coefficient pass.
func reconstructKey(bundles [][numKeyChunks]shamir.Share, t int) ([32]byte, error) {
	sets := make([][]shamir.Share, numKeyChunks)
	for c := 0; c < numKeyChunks; c++ {
		shares := make([]shamir.Share, len(bundles))
		for i := range bundles {
			shares[i] = bundles[i][c]
		}
		sets[c] = shares
	}
	recovered, err := shamir.ReconstructBatch(sets, t)
	if err != nil {
		return [32]byte{}, fmt.Errorf("secagg: reconstructing key chunks: %w", err)
	}
	var chunks [numKeyChunks]field.Element
	copy(chunks[:], recovered)
	return chunksToBytes(chunks), nil
}
