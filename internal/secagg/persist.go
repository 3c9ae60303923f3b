package secagg

import (
	"fmt"
	"sort"

	"repro/internal/dh"
	"repro/internal/transport"
)

// Versioned binary persistence for client sessions, following the
// core/codec.go layout idiom (magic/tag/version prefix, little-endian
// length-prefixed sections, allocation caps against hostile prefixes).
//
// What is serialized — exactly the session's amortization state:
//
//   - the two X25519 private scalars (cipher and mask key pairs),
//   - the cached pairwise secrets with their ratchet steps,
//   - the continuity state (derivation-point high-water mark, taint),
//   - the cached stage-0 roster.
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
// the at-rest envelope; see doc.go ("At-rest session state") for what a
// store leak costs.
const (
	persistMagic = 0xDA
	persistTag   = 0x53 // 'S': secagg client session
	// Only the current layout decodes (keys, ratchet, taint, NoiseEpoch,
	// roster, secret caches); any other version fails loudly and the
	// caller starts a fresh session, which costs one re-key.
	persistVersion = 2

	// maxPersistEntries caps decoded section counts (roster members, cached
	// secrets): protocol reality is one entry per sampled client.
	maxPersistEntries = 1 << 20
	// maxPersistBlob caps one variable-length byte field (public keys are
	// 32 bytes, signatures 64).
	maxPersistBlob = 1 << 16
)

func writeSecretSection(w *transport.Writer, cache map[string]ratchetedSecret) {
	w.Count(len(cache), maxPersistEntries)
	keys := make([]string, 0, len(cache))
	for k := range cache {
		keys = append(keys, k)
	}
	sort.Strings(keys) // deterministic encoding
	for _, k := range keys {
		c := cache[k]
		w.Blob([]byte(k), maxPersistBlob)
		w.Uint64(c.step)
		w.Raw(c.sec[:]...)
	}
}

// readSecretSection decodes one secret cache; each entry costs at least
// 2+8+SharedSize bytes, so a count the payload cannot carry is rejected
// before the map is allocated.
func readSecretSection(r *transport.Reader) map[string]ratchetedSecret {
	n := r.Count(2+8+dh.SharedSize, maxPersistEntries)
	out := make(map[string]ratchetedSecret, n)
	for i := 0; i < n; i++ {
		pub := string(r.Blob(maxPersistBlob))
		c := ratchetedSecret{step: r.Uint64()}
		copy(c.sec[:], r.Raw(dh.SharedSize))
		if _, dup := out[pub]; dup {
			r.Fail(fmt.Errorf("secagg: duplicate persisted secret entry"))
		}
		out[pub] = c
	}
	return out
}

func writeRoster(w *transport.Writer, roster []AdvertiseMsg) {
	w.Count(len(roster), maxPersistEntries)
	for _, m := range roster {
		w.Uint64(m.From)
		w.Blob(m.CipherPub, maxPersistBlob)
		w.Blob(m.MaskPub, maxPersistBlob)
		w.Blob(m.Signature, maxPersistBlob)
	}
}

// readRoster decodes a cached roster (nil when empty); the minimum entry
// is an id plus three empty blobs.
func readRoster(r *transport.Reader) []AdvertiseMsg {
	n := r.Count(8+3*2, maxPersistEntries)
	if n == 0 {
		return nil
	}
	roster := make([]AdvertiseMsg, n)
	for i := range roster {
		roster[i] = AdvertiseMsg{From: r.Uint64(), CipherPub: r.Blob(maxPersistBlob),
			MaskPub: r.Blob(maxPersistBlob), Signature: r.Blob(maxPersistBlob)}
	}
	return roster
}

// readVersion checks a record's version byte.
func readVersion(r *transport.Reader, want byte) {
	if v := r.Byte(); v != want {
		r.Fail(fmt.Errorf("secagg: persisted record version %d, want %d", v, want))
	}
}

// MarshalBinary serializes the session (see the package-level layout note
// above). The output holds raw private keys: wrap it with
// sessionstore.Store before it touches disk.
func (s *Session) MarshalBinary() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	w := transport.NewWriter(persistMagic, persistTag, 0)
	cpriv, mpriv := s.cipherKey.PrivateBytes(), s.maskKey.PrivateBytes()
	var flags byte
	if s.taint {
		flags |= 1
	}
	w.Raw(persistVersion)
	w.Raw(cpriv[:]...)
	w.Raw(mpriv[:]...)
	w.Uint64(s.nextRatchet)
	w.Raw(flags)
	w.Uint64(s.noiseEpoch)
	writeRoster(w, s.roster)
	writeSecretSection(w, s.mask)
	writeSecretSection(w, s.channel)
	return w.Done()
}

// UnmarshalSession rebuilds a session from MarshalBinary output. The
// restored session resumes with zero key generations and zero agreements:
// the key pairs come back via dh.FromPrivateBytes and every cached
// pairwise secret is reinstalled at its persisted ratchet step.
func UnmarshalSession(p []byte) (*Session, error) {
	r := transport.NewReader(p, persistMagic, persistTag)
	readVersion(r, persistVersion)
	var cpriv, mpriv [32]byte
	copy(cpriv[:], r.Raw(32))
	copy(mpriv[:], r.Raw(32))
	s := &Session{nextRatchet: r.Uint64(), taint: r.Byte()&1 != 0, noiseEpoch: r.Uint64()}
	s.roster = readRoster(r)
	s.mask = readSecretSection(r)
	s.channel = readSecretSection(r)
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
