package lightsecagg

import (
	"fmt"
	"sort"

	"repro/internal/dh"
	"repro/internal/transport"
)

// Versioned binary persistence for client sessions, mirroring
// secagg/persist.go. Serialized: the X25519 channel private scalar, the
// cached pairwise channel secrets, and the cached stage-0 roster. Never
// serialized: masks (LightSecAgg's masks are fresh uniform one-time pads
// drawn per round and consumed immediately — there is nothing to resume),
// coded shares, and the encoding matrix (a geometry-only cache rebuilt on
// first use). The plaintext holds a raw private key; wrap it with
// sessionstore.Store before it touches disk.
const (
	persistMagic   = 0xDA
	persistTag     = 0x4C // 'L': lightsecagg client session
	persistVersion = 1

	maxPersistEntries = 1 << 20
	maxPersistBlob    = 1 << 16
)

// MarshalBinary serializes the session's amortization state.
func (s *Session) MarshalBinary() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	w := transport.NewWriter(persistMagic, persistTag, 0)
	priv := s.key.PrivateBytes()
	w.Raw(persistVersion)
	w.Raw(priv[:]...)
	w.Uint64(s.nextRound)
	w.Count(len(s.roster), maxPersistEntries)
	for _, m := range s.roster {
		w.Uint64(m.From)
		w.Blob(m.Pub, maxPersistBlob)
	}
	w.Count(len(s.channel), maxPersistEntries)
	keys := make([]string, 0, len(s.channel))
	for k := range s.channel {
		keys = append(keys, k)
	}
	sort.Strings(keys) // deterministic encoding
	for _, k := range keys {
		sec := s.channel[k]
		w.Blob([]byte(k), maxPersistBlob)
		w.Raw(sec[:]...)
	}
	return w.Done()
}

// UnmarshalSession rebuilds a session from MarshalBinary output. The
// restored session resumes with zero key generations and zero agreements.
// Section counts the payload cannot carry are rejected before anything is
// allocated for them.
func UnmarshalSession(p []byte) (*Session, error) {
	r := transport.NewReader(p, persistMagic, persistTag)
	if v := r.Byte(); v != persistVersion {
		r.Fail(fmt.Errorf("lightsecagg: persisted session version %d, want %d", v, persistVersion))
	}
	var priv [32]byte
	copy(priv[:], r.Raw(32))
	s := &Session{nextRound: r.Uint64(), channel: make(map[string][dh.SharedSize]byte)}
	if n := r.Count(8+2, maxPersistEntries); n > 0 {
		s.roster = make([]AdvertiseMsg, n)
		for i := range s.roster {
			s.roster[i] = AdvertiseMsg{From: r.Uint64(), Pub: r.Blob(maxPersistBlob)}
		}
	}
	for i, n := 0, r.Count(2+dh.SharedSize, maxPersistEntries); i < n; i++ {
		pub := string(r.Blob(maxPersistBlob))
		var sec [dh.SharedSize]byte
		copy(sec[:], r.Raw(dh.SharedSize))
		if _, dup := s.channel[pub]; dup {
			r.Fail(fmt.Errorf("lightsecagg: duplicate persisted secret entry"))
		}
		s.channel[pub] = sec
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("lightsecagg: persisted session: %w", err)
	}
	var err error
	if s.key, err = dh.FromPrivateBytes(priv); err != nil {
		return nil, err
	}
	return s, nil
}
