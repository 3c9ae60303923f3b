package secagg

import (
	"fmt"

	"repro/internal/dh"
	"repro/internal/session"
)

// Versioned binary persistence for client sessions, in the record idiom of
// package session (magic/tag/version prefix, little-endian length-prefixed
// sections, allocation caps against hostile prefixes).
//
// What is serialized — exactly the session's amortization state:
//
//   - the two X25519 private scalars (cipher and mask key pairs),
//   - the continuity state (derivation-point high-water mark, taint) and
//     the cached stage-0 roster,
//   - the cached pairwise secrets with their ratchet steps.
//
// What is deliberately NEVER serialized:
//
//   - expanded masks or PRG keystream: masks are derived on demand from the
//     pairwise secrets and immediately consumed; persisting an expanded
//     mask would turn a store leak into a direct unmasking of the one
//     upload it covers, for zero amortization benefit (expansion is ~1.6
//     ns/element — re-deriving is cheaper than reading it back from disk);
//   - per-round state (self-mask seed b_u, decrypted share bundles,
//     survivor sets): all of it is freshly dealt every round by design.
//
// The plaintext contains raw private keys, so it must only ever touch disk
// through an authenticated encryption wrap — package sessionstore provides
// the at-rest envelope; see ARCHITECTURE.md ("At-rest session state") for
// what a store leak costs.
const (
	persistTag = 0x53 // 'S': secagg client session
	// Version 3 dropped version 2's noise-epoch field.
	persistVersion = 3
)

// MarshalBinary serializes the session (see the package-level layout note
// above). The output holds raw private keys: wrap it with
// sessionstore.Store before it touches disk.
func (s *Session) MarshalBinary() ([]byte, error) {
	cipherKey, maskKey := s.keyPairs()
	cpriv, mpriv := cipherKey.PrivateBytes(), maskKey.PrivateBytes()
	w := session.NewRecord(persistTag, persistVersion)
	w.Raw(cpriv[:]...)
	w.Raw(mpriv[:]...)
	s.ClientState.WriteRecord(w)
	s.mask.WriteRecord(w)
	s.channel.WriteRecord(w)
	return w.Done()
}

// UnmarshalSession rebuilds a session from MarshalBinary output. The
// restored session resumes with zero key generations and zero agreements:
// the key pairs come back via dh.FromPrivateBytes and every cached
// pairwise secret is reinstalled at its persisted ratchet step.
func UnmarshalSession(p []byte) (*Session, error) {
	r := session.OpenRecord(p, persistTag, persistVersion)
	var cpriv, mpriv [32]byte
	copy(cpriv[:], r.Raw(32))
	copy(mpriv[:], r.Raw(32))
	s := &Session{}
	s.ClientState.ReadRecord(r)
	s.mask.ReadRecord(r)
	s.channel.ReadRecord(r)
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("secagg: persisted session: %w", err)
	}
	var err error
	if s.cipherKey, err = dh.FromPrivateBytes(cpriv); err != nil {
		return nil, err
	}
	if s.maskKey, err = dh.FromPrivateBytes(mpriv); err != nil {
		return nil, err
	}
	return s, nil
}

// UnmarshalServerSession rebuilds a server session from its MarshalBinary
// output (session.ServerState's record: continuity state and roster only).
// The key and secret caches come back empty (re-agreed on demand); the
// taint set comes back intact, so the next handshake partitions the
// tainted members as divergent and re-keys exactly those edges — the
// restart downgrade ARCHITECTURE.md describes.
func UnmarshalServerSession(p []byte) (*ServerSession, error) {
	s := NewServerSession()
	if err := s.UnmarshalBinary(p); err != nil {
		return nil, err
	}
	return s, nil
}
