// Package dh implements the Diffie–Hellman key agreement used by Dordis to
// establish secure channels across clients over the server-mediated network
// (paper §3.3, "Establishment of Secure Channels across Clients").
//
// The paper's SecAgg instantiation (Fig. 5) uses a KA scheme composed with a
// secure hash: KA.gen produces a key pair, KA.agree(skA, pkB) derives a
// shared secret that both ends compute identically. We instantiate KA with
// X25519 and derive the symmetric secret with SHA-256 over a domain
// separator and both public keys, which binds the secret to the channel.
package dh

import (
	"crypto/ecdh"
	"crypto/sha256"
	"fmt"
	"io"
	"sync/atomic"
)

// PublicKeySize is the wire size of a public key in bytes.
const PublicKeySize = 32

// SharedSize is the size of the derived shared secret in bytes.
const SharedSize = 32

// KeyPair holds an X25519 key pair for one protocol role. The paper's
// clients hold two pairs per round: c^PK/c^SK for channel encryption and
// s^PK/s^SK for pairwise mask derivation.
type KeyPair struct {
	priv *ecdh.PrivateKey
}

// Generate creates a key pair with randomness from rand.
func Generate(rand io.Reader) (*KeyPair, error) {
	generateCalls.Add(1)
	priv, err := ecdh.X25519().GenerateKey(rand)
	if err != nil {
		return nil, fmt.Errorf("dh: generating key: %w", err)
	}
	return &KeyPair{priv: priv}, nil
}

// PublicBytes returns the 32-byte public key for transmission.
func (k *KeyPair) PublicBytes() []byte {
	return k.priv.PublicKey().Bytes()
}

// PrivateBytes returns the 32-byte private scalar. SecAgg Shamir-shares it
// so the server can reconstruct a dropped client's pairwise masks.
func (k *KeyPair) PrivateBytes() [32]byte {
	var out [32]byte
	copy(out[:], k.priv.Bytes())
	return out
}

// FromPrivateBytes rebuilds a key pair from a 32-byte private scalar (the
// server-side reconstruction path).
func FromPrivateBytes(b [32]byte) (*KeyPair, error) {
	priv, err := ecdh.X25519().NewPrivateKey(b[:])
	if err != nil {
		return nil, fmt.Errorf("dh: rebuilding private key: %w", err)
	}
	return &KeyPair{priv: priv}, nil
}

// Agree computes the shared secret with the peer identified by its public
// key bytes. Both ends derive the same secret because the hash input orders
// the two public keys canonically (lexicographically smaller first).
func (k *KeyPair) Agree(peerPublic []byte) ([SharedSize]byte, error) {
	agreeCalls.Add(1)
	var out [SharedSize]byte
	peer, err := ecdh.X25519().NewPublicKey(peerPublic)
	if err != nil {
		return out, fmt.Errorf("dh: invalid peer public key: %w", err)
	}
	raw, err := k.priv.ECDH(peer)
	if err != nil {
		return out, fmt.Errorf("dh: agreement failed: %w", err)
	}
	mine := k.PublicBytes()
	lo, hi := mine, peerPublic
	if lessBytes(peerPublic, mine) {
		lo, hi = peerPublic, mine
	}
	h := sha256.New()
	h.Write([]byte("dordis/dh/agree/v1"))
	h.Write(raw)
	h.Write(lo)
	h.Write(hi)
	h.Sum(out[:0])
	return out, nil
}

func lessBytes(a, b []byte) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// hkdfSalt is the fixed extract salt for Expand. Agree outputs are already
// uniform hash outputs, but the extract step keeps the construction a
// textbook HKDF so Expand is safe on any shared-secret-shaped input.
var hkdfSalt = []byte("dordis/dh/hkdf/v1")

// Expand derives a labeled subkey from a shared secret via HKDF-SHA256
// (extract under a fixed protocol salt, then one expand block — SharedSize
// is exactly one SHA-256 output). It is the KDF fork used to derive
// per-chunk pairwise mask seeds from a single key agreement: distinct info
// labels yield computationally independent subkeys, so one X25519
// agreement can safely serve many domain-separated PRG streams.
func Expand(secret [SharedSize]byte, info []byte) [SharedSize]byte {
	prk := hmacSHA256(hkdfSalt, secret[:], nil)
	return hmacSHA256(prk[:], info, []byte{0x01})
}

// hmacSHA256 is HMAC-SHA256 of m1 ‖ m2 under a key of at most one SHA-256
// block, as two one-shot hashes over a stack buffer: Expand runs once per
// (pair, chunk) and per ratchet step, and hmac.New costs two heap digests
// a call. A message over 96 bytes spills the buffer to the heap and is
// still correct.
func hmacSHA256(key, m1, m2 []byte) [sha256.Size]byte {
	var pad [sha256.BlockSize]byte
	copy(pad[:], key)
	var buf [sha256.BlockSize + 96]byte
	msg := buf[:0]
	for _, b := range pad {
		msg = append(msg, b^0x36)
	}
	inner := sha256.Sum256(append(append(msg, m1...), m2...))
	msg = buf[:0]
	for _, b := range pad {
		msg = append(msg, b^0x5c)
	}
	return sha256.Sum256(append(msg, inner[:]...))
}

// ratchetInfo is the Expand label that advances a cached shared secret one
// round forward.
var ratchetInfo = []byte("dordis/dh/ratchet/v1")

// Ratchet advances a cached shared secret one round forward. A session that
// reuses key agreements across consecutive rounds ratchets each cached
// secret once per round instead of re-running X25519, so two rounds never
// mask with the same PRG seeds. The step is one-way (HKDF), but note the
// threat-model caveat: the X25519 private keys themselves persist for
// re-sharing, so ratcheting provides per-round mask separation and bounded
// key lifetime, not forward secrecy against endpoint-state compromise.
func Ratchet(secret [SharedSize]byte) [SharedSize]byte {
	return Expand(secret, ratchetInfo)
}

// RatchetN applies Ratchet n times. n = 0 returns the secret unchanged, so
// ratchet step 0 is byte-identical to the raw agreement output.
func RatchetN(secret [SharedSize]byte, n uint64) [SharedSize]byte {
	for ; n > 0; n-- {
		secret = Ratchet(secret)
	}
	return secret
}

// Process-wide telemetry counters. X25519 is the dominant fixed cost of a
// SecAgg round, so tests and benches assert amortization bounds (n·k
// agreements per round, not m·n·k across m pipeline chunks) against these.
var (
	agreeCalls    atomic.Uint64
	generateCalls atomic.Uint64
)

// AgreeCount returns the number of Agree calls performed process-wide.
func AgreeCount() uint64 { return agreeCalls.Load() }

// GenerateCount returns the number of Generate calls performed
// process-wide.
func GenerateCount() uint64 { return generateCalls.Load() }
