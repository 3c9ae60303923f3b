package secagg

import (
	"fmt"
	"sort"

	"repro/internal/transport"
)

// Versioned binary persistence for *server* sessions, sharing the client
// persistence idiom (persist.go) and envelope magic.
//
// What is serialized — only the state that makes a restarted aggregator
// resume instead of forcing a fleet re-key:
//
//   - the continuity state: derivation-point high-water mark and the
//     tainted-client set,
//   - the cached stage-0 roster and the client set it was sealed for
//     (so StateHashFor answers and advertise skipping still works).
//
// What is deliberately NEVER serialized, unlike the client session:
//
//   - reconstructed mask key pairs and the pairwise secrets derived from
//     them. A client's persisted private keys are its own; a server blob
//     holding *other parties'* reconstructed keys would turn one store
//     leak into the mask keys of every client the server ever unmasked.
//     The information is also redundant: any key the server legitimately
//     reconstructed came from survivor shares, and the taint set already
//     records that it happened.
//
// The restored session therefore has empty key/secret caches — the server
// re-agrees on demand — and keeps its taint: at the next handshake the
// tainted members partition as divergent, so a restart downgrades to
// per-edge re-key for exactly the edges that need it instead of a full
// fleet re-key. The blob still names the roster's public keys, so wrap it
// with sessionstore.Store like the client blobs.
const (
	persistServerTag     = 0x56 // 'V': secagg server session
	persistServerVersion = 1
)

// MarshalBinary serializes the server session's continuity state (see the
// layout note above; reconstructed keys and pairwise secrets are
// deliberately excluded).
func (s *ServerSession) MarshalBinary() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	w := transport.NewWriter(persistMagic, persistServerTag, 0)
	w.Raw(persistServerVersion)
	w.Uint64(s.nextRatchet)
	writeRoster(w, s.roster)
	w.Words(s.rosterIDs, maxPersistEntries)
	tainted := make([]uint64, 0, len(s.tainted))
	for id := range s.tainted {
		tainted = append(tainted, id)
	}
	sort.Slice(tainted, func(i, j int) bool { return tainted[i] < tainted[j] }) // deterministic encoding
	w.Words(tainted, maxPersistEntries)
	return w.Done()
}

// UnmarshalServerSession rebuilds a server session from MarshalBinary
// output. The key and secret caches come back empty (re-agreed on
// demand); the taint set comes back intact, so the next handshake
// partitions the tainted members as divergent and re-keys exactly those
// edges — the restart downgrade ARCHITECTURE.md describes.
func UnmarshalServerSession(p []byte) (*ServerSession, error) {
	r := transport.NewReader(p, persistMagic, persistServerTag)
	readVersion(r, persistServerVersion)
	s := NewServerSession()
	s.nextRatchet = r.Uint64()
	s.roster = readRoster(r)
	s.rosterIDs = r.Words(maxPersistEntries)
	if tainted := r.Words(maxPersistEntries); len(tainted) > 0 {
		s.tainted = make(map[uint64]bool, len(tainted))
		for _, id := range tainted {
			s.tainted[id] = true
		}
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("secagg: persisted server session: %w", err)
	}
	return s, nil
}
