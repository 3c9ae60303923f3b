// Package sessionstore is the AEAD-wrapped at-rest store for serialized
// protocol sessions — the persistence half of cross-round session
// continuity (the other half is the re-key handshake in package core).
//
// A client session's serialized form (secagg/persist.go,
// lightsecagg/persist.go) contains raw X25519 private scalars and cached
// pairwise secrets, so it never touches disk in the clear: Save wraps the
// record in AES-256-GCM under a store key the deployment supplies out of
// band, with associated data binding the record to its name and the
// envelope version. A record copied to another name, truncated, or
// bit-flipped fails authentication instead of restoring a wrong session.
//
// Threat model (see ARCHITECTURE.md, "At-rest session state"): the envelope
// protects against a leaked *file*; a leaked file *plus* the store key
// hands the attacker exactly what a live-endpoint compromise would — the
// session's private keys and cached secrets, with which it can derive that
// key generation's future pairwise masks and decrypt its share ciphertexts.
// It never hands over expanded masks or past plaintext updates directly:
// expanded masks are deliberately excluded from the persisted state.
package sessionstore

import (
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/aead"
)

// envelopeMagic prefixes every stored record (4 bytes, versioned).
var envelopeMagic = []byte("DSS1")

// ErrNotFound is returned by Load when no record exists under the name.
var ErrNotFound = errors.New("sessionstore: record not found")

// Store is a directory of AEAD-wrapped records, one file per name.
type Store struct {
	dir string
	key [aead.KeySize]byte
}

// DeriveKey maps arbitrary key material (a passphrase, the contents of a
// key file) to the store's AEAD key via a domain-separated SHA-256.
func DeriveKey(secret []byte) [aead.KeySize]byte {
	h := sha256.New()
	h.Write([]byte("dordis/sessionstore/key/v1"))
	h.Write(secret)
	var out [aead.KeySize]byte
	h.Sum(out[:0])
	return out
}

// Open creates (0700) or reuses the directory and returns a store sealing
// under key.
func Open(dir string, key [aead.KeySize]byte) (*Store, error) {
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, fmt.Errorf("sessionstore: %w", err)
	}
	return &Store{dir: dir, key: key}, nil
}

// validName rejects names that could escape the store directory or collide
// with the atomic-write temp files.
func validName(name string) error {
	if name == "" || len(name) > 255 {
		return fmt.Errorf("sessionstore: bad record name %q", name)
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
		default:
			return fmt.Errorf("sessionstore: bad record name %q", name)
		}
	}
	return nil
}

func (s *Store) path(name string) string { return filepath.Join(s.dir, name+".sess") }

// ad returns the associated data binding a record to its name and the
// envelope version.
func ad(name string) []byte {
	return append([]byte("dordis/sessionstore/v1|"), name...)
}

// Save seals plaintext under the record name and writes it atomically
// (temp file + rename), so a crash mid-write leaves the previous record
// intact rather than a torn one.
func (s *Store) Save(name string, plaintext []byte) error {
	if err := validName(name); err != nil {
		return err
	}
	ct, err := aead.Seal(s.key, rand.Reader, plaintext, ad(name))
	if err != nil {
		return fmt.Errorf("sessionstore: sealing %q: %w", name, err)
	}
	out := make([]byte, 0, len(envelopeMagic)+len(ct))
	out = append(out, envelopeMagic...)
	out = append(out, ct...)
	tmp, err := os.CreateTemp(s.dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("sessionstore: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(out); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("sessionstore: writing %q: %w", name, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("sessionstore: writing %q: %w", name, err)
	}
	if err := os.Chmod(tmpName, 0o600); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("sessionstore: %w", err)
	}
	if err := os.Rename(tmpName, s.path(name)); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("sessionstore: %w", err)
	}
	return nil
}

// Load opens and authenticates the record under name, returning
// ErrNotFound when no record exists. Any tampering, truncation, wrong key,
// or name mismatch fails with an authentication error.
func (s *Store) Load(name string) ([]byte, error) {
	if err := validName(name); err != nil {
		return nil, err
	}
	raw, err := os.ReadFile(s.path(name))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	if err != nil {
		return nil, fmt.Errorf("sessionstore: %w", err)
	}
	if len(raw) < len(envelopeMagic) || string(raw[:len(envelopeMagic)]) != string(envelopeMagic) {
		return nil, fmt.Errorf("sessionstore: %q is not a session record", name)
	}
	pt, err := aead.Open(s.key, raw[len(envelopeMagic):], ad(name))
	if err != nil {
		return nil, fmt.Errorf("sessionstore: opening %q: %w", name, err)
	}
	return pt, nil
}
