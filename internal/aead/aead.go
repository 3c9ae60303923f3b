// Package aead provides the authenticated-encryption scheme AE used by
// SecAgg (paper Fig. 5): an IND-CPA and INT-CTXT secure scheme that clients
// use to encrypt Shamir shares for one another over the server-mediated
// channel. The server relays ciphertexts it cannot read or undetectably
// modify.
//
// The instantiation is AES-256-GCM with a random 12-byte nonce prepended to
// each ciphertext. Associated data binds the ciphertext to its routing
// metadata (sender u, receiver v, round), preventing the mix-and-match
// replay the SecAgg security proof excludes.
package aead

import (
	"crypto/aes"
	"crypto/cipher"
	"errors"
	"fmt"
	"io"
)

// KeySize is the symmetric key length in bytes (AES-256).
const KeySize = 32

// NonceSize is the GCM nonce length in bytes.
const NonceSize = 12

// Overhead is the ciphertext expansion: nonce + GCM tag.
const Overhead = NonceSize + 16

// ErrDecrypt is returned on any authentication or decryption failure; the
// cause is deliberately not distinguished (a decryption oracle distinction
// would weaken INT-CTXT in practice).
var ErrDecrypt = errors.New("aead: decryption failed")

// Key is a constructed key: the AES key schedule and GCM table built once,
// for a channel that seals and opens more than one message. Safe for
// concurrent use.
type Key struct {
	g cipher.AEAD
}

// NewKey constructs the key.
func NewKey(key [KeySize]byte) *Key {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		// aes.NewCipher only fails on invalid key length; KeySize is valid.
		panic(fmt.Sprintf("aead: %v", err))
	}
	g, err := cipher.NewGCM(block)
	if err != nil {
		panic(fmt.Sprintf("aead: %v", err)) // only for a non-128-bit block cipher
	}
	return &Key{g: g}
}

// Seal encrypts plaintext under the key, binding associated data ad. The
// nonce is drawn from rand and prepended to the returned ciphertext.
func (k *Key) Seal(rand io.Reader, plaintext, ad []byte) ([]byte, error) {
	out := make([]byte, NonceSize, Overhead+len(plaintext))
	if _, err := io.ReadFull(rand, out[:NonceSize]); err != nil {
		return nil, fmt.Errorf("aead: reading nonce: %w", err)
	}
	return k.g.Seal(out, out[:NonceSize], plaintext, ad), nil
}

// Open decrypts a ciphertext produced by Seal, verifying the associated
// data. It returns ErrDecrypt on any failure.
func (k *Key) Open(ciphertext, ad []byte) ([]byte, error) {
	if len(ciphertext) < Overhead {
		return nil, ErrDecrypt
	}
	pt, err := k.g.Open(nil, ciphertext[:NonceSize], ciphertext[NonceSize:], ad)
	if err != nil {
		return nil, ErrDecrypt
	}
	return pt, nil
}

// Seal is NewKey(key).Seal for a key used once.
func Seal(key [KeySize]byte, rand io.Reader, plaintext, ad []byte) ([]byte, error) {
	return NewKey(key).Seal(rand, plaintext, ad)
}

// Open is NewKey(key).Open for a key used once.
func Open(key [KeySize]byte, ciphertext, ad []byte) ([]byte, error) {
	return NewKey(key).Open(ciphertext, ad)
}
