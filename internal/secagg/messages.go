package secagg

import (
	"encoding/binary"

	"repro/internal/field"
	"repro/internal/session"
	"repro/internal/shamir"
)

// AdvertiseMsg is the stage-0 client message: the two ephemeral public
// keys, optionally signed (malicious mode). It is the roster entry the
// session layer caches, hashes and persists.
type AdvertiseMsg = session.Entry

// advertisePayload is the byte string the stage-0 signature covers.
func advertisePayload(m AdvertiseMsg) []byte {
	out := make([]byte, 0, len(m.CipherPub)+len(m.MaskPub)+1)
	out = append(out, m.CipherPub...)
	out = append(out, '|')
	out = append(out, m.MaskPub...)
	return out
}

// ShareBundle is the plaintext a client u encrypts for peer v during
// ShareKeys: v's Shamir shares of u's mask secret key, self-mask seed, and
// removable noise seeds.
type ShareBundle struct {
	From, To   uint64
	MaskKey    [numKeyChunks]shamir.Share // shares of s^SK (chunked)
	SelfSeed   shamir.Share               // share of b_u
	NoiseSeeds []shamir.Share             // shares of g_{u,k}, k = 1..T (XNoise)
}

// EncryptedShareMsg is the stage-1 wire form: AE ciphertext plus routing
// metadata (which the AE binds as associated data).
type EncryptedShareMsg struct {
	From, To   uint64
	Ciphertext []byte
}

// MaskedInputMsg is the stage-2 client message: the masked (and noised)
// input vector, plus (malicious mode) the round signature ω'_u that lets
// peers verify the server's claimed survivor set.
//
// The vector travels in one of two forms. A client produces Y; the wire
// decoder leaves Y nil and sets YLE to the same words as they lie in the
// frame, little-endian, borrowed from the payload. Server.AddMasked takes
// either and keeps neither.
type MaskedInputMsg struct {
	From uint64
	Y    []uint64 // masked input, reduced mod 2^b
	YLE  []byte   // or its wire bytes: 8 little-endian bytes per coordinate
}

// ConsistencyMsg is the stage-3 client message: a signature over
// (round ∥ U3).
type ConsistencyMsg struct {
	From      uint64
	Signature []byte
}

// consistencyPayload is the byte string signed at stage 3.
func consistencyPayload(round uint64, u3 []uint64) []byte {
	out := make([]byte, 8+8*len(u3))
	binary.LittleEndian.PutUint64(out, round)
	for i, id := range u3 {
		binary.LittleEndian.PutUint64(out[8+8*i:], id)
	}
	return out
}

// UnmaskRequest is the server's stage-4 broadcast: the survivor sets and,
// in malicious mode, every survivor's stage-3 signature for verification.
type UnmaskRequest struct {
	U3         []uint64
	U4         []uint64
	Signatures map[uint64][]byte // id → ω'; malicious mode only
}

// UnmaskMsg is the stage-4 client response: shares that let the server
// unmask (mask-key shares for the dead, self-seed shares for the live) and
// the client's own removable noise seeds g_{u,k} for k ∈ [|U\U3|+1, T].
type UnmaskMsg struct {
	From           uint64
	MaskKeyShares  map[uint64][numKeyChunks]shamir.Share // v ∈ U2\U3 → share of s^SK_v
	SelfSeedShares map[uint64]shamir.Share               // v ∈ U3   → share of b_v
	OwnNoiseSeeds  map[int]field.Element                 // k → g_{u,k} (XNoise)
}

// NoiseShareRequest is the server's stage-5 broadcast: the set U5 of
// clients that completed unmasking, from which each live client infers
// U3\U5 — the clients whose noise seeds must be reconstructed.
type NoiseShareRequest struct {
	U5 []uint64
}

// NoiseShareMsg is the stage-5 client response: shares of the removable
// noise seeds of clients in U3\U5.
type NoiseShareMsg struct {
	From   uint64
	Shares map[uint64]map[int]shamir.Share // v ∈ U3\U5 → k → share of g_{v,k}
}

// Result is the server's output for the round.
//
// Like MaskedInputMsg, the sum travels in one of two forms. The server
// produces Sum; the wire decoder leaves Sum nil and sets SumLE to the same
// words as they lie in the frame, borrowed from the payload. A client's
// Result step copies SumLE into the client's one buffer (NewClient) and
// hands on Sum alone. With a Session that buffer is the session's: a
// client's Sum is valid until that session's next sub-round.
type Result struct {
	// Sum is the aggregate Σ_{u∈U3} of the (noised) inputs, fully unmasked
	// and, with XNoise, with excessive noise removed.
	Sum []uint64
	// SumLE is Sum's wire bytes: 8 little-endian bytes per coordinate.
	SumLE []byte
	// Survivors is U3: the clients whose inputs are included.
	Survivors []uint64
	// Dropped is U \ U3: the clients whose inputs (and noise) are missing.
	Dropped []uint64
	// RemovedComponents lists the XNoise component indices subtracted.
	RemovedComponents []int
}
