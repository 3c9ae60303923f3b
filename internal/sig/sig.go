// Package sig provides the UF-CMA signature scheme SIG used by Dordis in
// the malicious threat model (paper §3.3): clients sign their advertised
// keys and the per-round consistency-check set so that a malicious server
// can neither impersonate clients nor understate the dropout outcome
// ("Prevention from Understating Dropout").
//
// The instantiation is Ed25519. A trusted PKI (paper: "a public key
// infrastructure operated by a qualified trust service provider") is
// modeled by the Registry type: a read-only map from client identity to
// verification key distributed out of band before the protocol starts.
package sig

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Signer holds a signing key d^SK bound to one client identity.
type Signer struct {
	priv ed25519.PrivateKey
	pub  ed25519.PublicKey
}

// NewSigner generates a signing key with randomness from rand.
func NewSigner(rand io.Reader) (*Signer, error) {
	pub, priv, err := ed25519.GenerateKey(rand)
	if err != nil {
		return nil, fmt.Errorf("sig: generating key: %w", err)
	}
	return &Signer{priv: priv, pub: pub}, nil
}

// Public returns the verification key d^PK.
func (s *Signer) Public() []byte {
	out := make([]byte, len(s.pub))
	copy(out, s.pub)
	return out
}

// Sign signs msg.
func (s *Signer) Sign(msg []byte) []byte {
	return ed25519.Sign(s.priv, msg)
}

// Verify reports whether signature is a valid signature of msg under pub.
func Verify(pub, msg, signature []byte) bool {
	if len(pub) != ed25519.PublicKeySize || len(signature) != ed25519.SignatureSize {
		return false
	}
	return ed25519.Verify(ed25519.PublicKey(pub), msg, signature)
}

// Registry models the PKI: identity → verification key. It is safe for
// concurrent reads after registration completes.
type Registry struct {
	mu   sync.RWMutex
	keys map[uint64][]byte
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{keys: make(map[uint64][]byte)}
}

// ErrUnknownIdentity is returned when looking up an unregistered identity.
var ErrUnknownIdentity = errors.New("sig: unknown identity")

// Register binds identity id to verification key pub. Re-registering an
// identity is rejected: the PKI is append-only, which is what prevents a
// malicious server from swapping keys mid-protocol.
func (r *Registry) Register(id uint64, pub []byte) error {
	if len(pub) != ed25519.PublicKeySize {
		return fmt.Errorf("sig: bad public key length %d", len(pub))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, exists := r.keys[id]; exists {
		return fmt.Errorf("sig: identity %d already registered", id)
	}
	cp := make([]byte, len(pub))
	copy(cp, pub)
	r.keys[id] = cp
	return nil
}

// Key returns the verification key for id.
func (r *Registry) Key(id uint64) ([]byte, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	k, ok := r.keys[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownIdentity, id)
	}
	return k, nil
}

// VerifyFrom verifies a signature attributed to identity id.
func (r *Registry) VerifyFrom(id uint64, msg, signature []byte) bool {
	k, err := r.Key(id)
	if err != nil {
		return false
	}
	return Verify(k, msg, signature)
}
