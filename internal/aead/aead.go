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
//
// A Key has one implementation per direction, the append-style
// caller-buffer forms AppendSeal and AppendOpen (dst first, as cipher.AEAD
// has it); Seal and Open are their wrappers over a fresh buffer, never a
// second path. Overlap contract of the in-place seal, inherited from
// cipher.AEAD: plaintext either does not overlap dst[len(dst):cap(dst)] at
// all, or is exactly dst[len(dst)+NonceSize:][:len(plaintext)] — where its
// ciphertext will lie — with cap(dst) ≥ len(dst)+len(plaintext)+Overhead so
// the append does not move it. AppendOpen only reads its ciphertext; on
// failure the bytes of dst past len(dst) are unspecified and the prefix is
// untouched.
package aead

import (
	"crypto/aes"
	"crypto/cipher"
	"errors"
	"fmt"
	"io"
	"slices"
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

// AppendSeal encrypts plaintext under the key, binding associated data ad,
// and appends nonce ‖ ciphertext ‖ tag (len(plaintext) + Overhead bytes) to
// dst. The nonce is drawn from rand.
func (k *Key) AppendSeal(dst []byte, rand io.Reader, plaintext, ad []byte) ([]byte, error) {
	n := len(dst)
	dst = slices.Grow(dst, Overhead+len(plaintext))[:n+NonceSize]
	if _, err := io.ReadFull(rand, dst[n:]); err != nil {
		return nil, fmt.Errorf("aead: reading nonce: %w", err)
	}
	return k.g.Seal(dst, dst[n:], plaintext, ad), nil
}

// AppendOpen decrypts a ciphertext produced by Seal or AppendSeal,
// verifying the associated data, and appends the plaintext to dst. It
// returns ErrDecrypt on any failure and never writes to ciphertext.
func (k *Key) AppendOpen(dst, ciphertext, ad []byte) ([]byte, error) {
	if len(ciphertext) < Overhead {
		return nil, ErrDecrypt
	}
	pt, err := k.g.Open(dst, ciphertext[:NonceSize], ciphertext[NonceSize:], ad)
	if err != nil {
		return nil, ErrDecrypt
	}
	return pt, nil
}

// Seal is AppendSeal into a fresh buffer of exactly the ciphertext's size.
func (k *Key) Seal(rand io.Reader, plaintext, ad []byte) ([]byte, error) {
	return k.AppendSeal(make([]byte, 0, Overhead+len(plaintext)), rand, plaintext, ad)
}

// Open is AppendOpen into a fresh buffer.
func (k *Key) Open(ciphertext, ad []byte) ([]byte, error) {
	return k.AppendOpen(nil, ciphertext, ad)
}

// Seal is NewKey(key).Seal for a key used once.
func Seal(key [KeySize]byte, rand io.Reader, plaintext, ad []byte) ([]byte, error) {
	return NewKey(key).Seal(rand, plaintext, ad)
}

// Open is NewKey(key).Open for a key used once.
func Open(key [KeySize]byte, ciphertext, ad []byte) ([]byte, error) {
	return NewKey(key).Open(ciphertext, ad)
}
