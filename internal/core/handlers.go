// Package core is Dordis's orchestration layer: it composes the DSkellam
// codec, the XNoise noise-enforcement scheme, the SecAgg/SecAgg+ secure
// aggregation protocols, and the pipeline executor into end-to-end
// training rounds (the architecture of paper Fig. 7), and exposes the
// pluggable handler interfaces of Appendix D so developers can swap any
// privacy or security building block.
package core

import (
	"io"

	"repro/internal/aead"
	"repro/internal/dh"
	"repro/internal/field"
	"repro/internal/prg"
	"repro/internal/ring"
	"repro/internal/shamir"
	"repro/internal/skellam"
)

// The handler interfaces below mirror Table 4 of the paper (Appendix D):
// DPHandler, KAHandler, AEHandler, PGHandler, and SSHandler let developers
// customize the DP mechanism and the cryptographic primitives
// independently of the protocol workflow.

// DPHandler performs DP encoding and decoding of model updates
// (paper: "overwrite init_params(), encode_data() and decode_data()").
type DPHandler interface {
	// Encode maps a raw update (model units) into the aggregation ring.
	Encode(update []float64, rnd *prg.Stream) (ring.Vector, error)
	// Decode maps an aggregated ring vector back to model units (the sum
	// of the encoded inputs).
	Decode(agg ring.Vector) ([]float64, error)
	// PaddedDim returns the ring dimension of encoded vectors.
	PaddedDim() int
}

// KAHandler is a key-agreement scheme (paper: KAHandler).
type KAHandler interface {
	Generate(rand io.Reader) (priv, pub []byte, err error)
	Agree(priv, peerPub []byte) ([32]byte, error)
}

// AEHandler is an authenticated-encryption scheme (paper: AEHandler).
type AEHandler interface {
	Seal(key [32]byte, rand io.Reader, plaintext, ad []byte) ([]byte, error)
	Open(key [32]byte, ciphertext, ad []byte) ([]byte, error)
}

// PGHandler is a seeded pseudorandom generator (paper: PGHandler).
type PGHandler interface {
	Stream(seed prg.Seed) *prg.Stream
}

// SSHandler is a threshold secret-sharing scheme (paper: SSHandler).
type SSHandler interface {
	Share(secret field.Element, t int, xs []field.Element, rand io.Reader) ([]shamir.Share, error)
	Reconstruct(shares []shamir.Share, t int) (field.Element, error)
}

// Default handler implementations, wired to the repository's substrates.

// X25519KA implements KAHandler with the dh package.
type X25519KA struct{}

// Generate implements KAHandler.
func (X25519KA) Generate(rand io.Reader) ([]byte, []byte, error) {
	kp, err := dh.Generate(rand)
	if err != nil {
		return nil, nil, err
	}
	priv := kp.PrivateBytes()
	return priv[:], kp.PublicBytes(), nil
}

// Agree implements KAHandler.
func (X25519KA) Agree(priv, peerPub []byte) ([32]byte, error) {
	var p [32]byte
	copy(p[:], priv)
	kp, err := dh.FromPrivateBytes(p)
	if err != nil {
		return [32]byte{}, err
	}
	return kp.Agree(peerPub)
}

// GCMAE implements AEHandler with AES-256-GCM.
type GCMAE struct{}

// Seal implements AEHandler.
func (GCMAE) Seal(key [32]byte, rand io.Reader, plaintext, ad []byte) ([]byte, error) {
	return aead.Seal(key, rand, plaintext, ad)
}

// Open implements AEHandler.
func (GCMAE) Open(key [32]byte, ciphertext, ad []byte) ([]byte, error) {
	return aead.Open(key, ciphertext, ad)
}

// CTRPG implements PGHandler with AES-CTR.
type CTRPG struct{}

// Stream implements PGHandler.
func (CTRPG) Stream(seed prg.Seed) *prg.Stream { return prg.NewStream(seed) }

// SkellamDP implements DPHandler with the DSkellam codec — the default
// mechanism of the paper's prototype (§5). The same codec carries the
// DDGauss instantiation: the mechanisms differ only in the noise sampler
// handed to XNoise (xnoise.SamplerForEpoch vs dgauss.Sampler), not in the
// encoding.
type SkellamDP struct {
	Params skellam.Params
}

// Encode implements DPHandler.
func (h SkellamDP) Encode(update []float64, rnd *prg.Stream) (ring.Vector, error) {
	return skellam.Encode(h.Params, update, rnd)
}

// Decode implements DPHandler.
func (h SkellamDP) Decode(agg ring.Vector) ([]float64, error) {
	return skellam.Decode(h.Params, agg)
}

// PaddedDim implements DPHandler.
func (h SkellamDP) PaddedDim() int { return h.Params.PaddedDim() }

// ShamirSS implements SSHandler with the shamir package.
type ShamirSS struct{}

// Share implements SSHandler.
func (ShamirSS) Share(secret field.Element, t int, xs []field.Element, rand io.Reader) ([]shamir.Share, error) {
	return shamir.Split(secret, t, xs, rand)
}

// Reconstruct implements SSHandler.
func (ShamirSS) Reconstruct(shares []shamir.Share, t int) (field.Element, error) {
	return shamir.Reconstruct(shares, t)
}
