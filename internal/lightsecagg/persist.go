package lightsecagg

import (
	"fmt"

	"repro/internal/dh"
	"repro/internal/session"
)

// Versioned binary persistence for client sessions, mirroring
// secagg/persist.go in the record idiom of package session. Serialized:
// the X25519 channel private scalar, the continuity state with the cached
// stage-0 roster, and the cached pairwise channel secrets. Never
// serialized: masks (LightSecAgg's masks are fresh uniform one-time pads
// drawn per round and consumed immediately — there is nothing to resume),
// coded shares, and the encoding matrix (a geometry-only cache rebuilt on
// first use). The plaintext holds a raw private key; wrap it with
// sessionstore.Store before it touches disk.
const (
	persistTag = 0x4C // 'L': lightsecagg client session
	// Version 2 adopted package session's shared sections.
	persistVersion = 2
)

// MarshalBinary serializes the session's amortization state.
func (s *Session) MarshalBinary() ([]byte, error) {
	priv := s.keyPair().PrivateBytes()
	w := session.NewRecord(persistTag, persistVersion)
	w.Raw(priv[:]...)
	s.ClientState.WriteRecord(w)
	s.channel.WriteRecord(w)
	return w.Done()
}

// UnmarshalSession rebuilds a session from MarshalBinary output. The
// restored session resumes with zero key generations and zero agreements.
func UnmarshalSession(p []byte) (*Session, error) {
	r := session.OpenRecord(p, persistTag, persistVersion)
	var priv [32]byte
	copy(priv[:], r.Raw(32))
	s := &Session{}
	s.ClientState.ReadRecord(r)
	s.channel.ReadRecord(r)
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("lightsecagg: persisted session: %w", err)
	}
	var err error
	if s.key, err = dh.FromPrivateBytes(priv); err != nil {
		return nil, err
	}
	return s, nil
}
