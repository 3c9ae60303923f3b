package secagg

import (
	"fmt"

	"repro/internal/dh"
	"repro/internal/session"
	"repro/internal/transport"
)

// Versioned binary persistence for the two SecAgg sessions — the at-rest
// records of PROTOCOL.md's "Session persistence at rest": the
// magic/tag/version prefix, little-endian fields, and the roster and
// secret sections package session encodes, under allocation caps against
// hostile prefixes.
//
// What a client record holds — exactly the session's amortization state:
//
//   - the two X25519 private scalars (cipher and mask key pairs),
//   - the continuity section: the ratchet high-water mark, the taint flag
//     and the cached stage-0 roster,
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

	serverTag     = 0x56 // 'V': secagg server session
	serverVersion = 1

	// maxRecordIDs caps a server record's id lists, as package session
	// caps its sections: one entry per sampled client.
	maxRecordIDs = 1 << 20
)

// MarshalBinary serializes the session (see the package-level layout note
// above). The output holds raw private keys: wrap it with
// sessionstore.Store before it touches disk.
func (s *Session) MarshalBinary() ([]byte, error) {
	w := transport.NewVersionedWriter(session.Magic, persistTag, persistVersion, 0)
	s.mu.Lock()
	cpriv, mpriv := s.cipherKey.PrivateBytes(), s.maskKey.PrivateBytes()
	w.Raw(cpriv[:]...)
	w.Raw(mpriv[:]...)
	// The continuity section: [nextRatchet:8][flags:1 (bit 0: taint)][roster section].
	var flags byte
	if s.taint {
		flags |= 1
	}
	w.Uint64(s.nextRatchet)
	w.Raw(flags)
	session.WriteRoster(w, s.roster)
	s.mu.Unlock()
	s.mask.WriteRecord(w)
	s.channel.WriteRecord(w)
	return w.Done()
}

// UnmarshalSession rebuilds a session from MarshalBinary output. The
// restored session resumes with zero key generations and zero agreements:
// the key pairs come back via dh.FromPrivateBytes and every cached
// pairwise secret is reinstalled at its persisted ratchet step.
func UnmarshalSession(p []byte) (*Session, error) {
	r := transport.NewVersionedReader(p, session.Magic, persistTag, persistVersion)
	var cpriv, mpriv [32]byte
	copy(cpriv[:], r.Raw(32))
	copy(mpriv[:], r.Raw(32))
	s := &Session{nextRatchet: r.Uint64()}
	flags := r.Byte()
	if flags&^1 != 0 {
		r.Fail(fmt.Errorf("secagg: unknown continuity flag bits %#x", flags))
	}
	s.taint = flags&1 != 0
	s.roster = session.ReadRoster(r)
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

// MarshalBinary serializes the server record — only the state that makes a
// restarted aggregator resume instead of forcing a fleet re-key:
//
//   - the continuity state: derivation-point high-water mark and the
//     tainted-client set,
//   - the cached stage-0 roster and the client set it was sealed for
//     (so StateHashFor answers and advertise skipping still works).
//
// Nothing else the session caches is ever part of the record, and that is
// deliberate: reconstructed mask key pairs and the pairwise secrets
// derived from them stay in memory only. A client's persisted private keys
// are its own; a server blob holding *other parties'* reconstructed keys
// would turn one store leak into the mask keys of every client the server
// ever unmasked. The information is also redundant: any key the server
// legitimately reconstructed came from survivor shares, and the taint set
// already records that it happened.
//
// A restored server therefore re-agrees on demand and keeps its taint: at
// the next handshake the tainted members partition as divergent, so a
// restart downgrades to per-edge re-key for exactly the edges that need it
// instead of a full fleet re-key. The blob still names the roster's public
// keys, so wrap it with sessionstore.Store like the client blobs.
func (s *ServerSession) MarshalBinary() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	w := transport.NewVersionedWriter(session.Magic, serverTag, serverVersion, 0)
	w.Uint64(s.nextRatchet)
	session.WriteRoster(w, s.roster)
	w.Words(s.rosterIDs, maxRecordIDs)
	w.Words(transport.SortedKeys(s.tainted), maxRecordIDs)
	return w.Done()
}

// UnmarshalServerSession rebuilds a server session from its MarshalBinary
// output. The key and secret caches come back empty (re-agreed on demand);
// the taint set comes back intact, so the next handshake partitions the
// tainted members as divergent and re-keys exactly those edges — the
// restart downgrade ARCHITECTURE.md describes.
func UnmarshalServerSession(p []byte) (*ServerSession, error) {
	r := transport.NewVersionedReader(p, session.Magic, serverTag, serverVersion)
	s := NewServerSession()
	s.nextRatchet, s.roster = r.Uint64(), session.ReadRoster(r)
	s.rosterIDs = r.Words(maxRecordIDs)
	tainted := r.Words(maxRecordIDs)
	for i := 1; i < len(tainted); i++ {
		if tainted[i] <= tainted[i-1] {
			r.Fail(fmt.Errorf("secagg: tainted ids not strictly ascending"))
		}
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("secagg: persisted server session: %w", err)
	}
	s.tainted = make(map[uint64]bool, len(tainted))
	for _, id := range tainted {
		s.tainted[id] = true
	}
	return s, nil
}
