package secagg

import (
	"encoding/binary"
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
	// Version history:
	//   1 — initial layout (keys, ratchet, taint, roster, secret caches).
	//   2 — appends the 8-byte NoiseEpoch after the flags byte; v1 blobs
	//       still decode, restoring as epoch 0, the default.
	persistVersion = 2

	// maxPersistEntries caps decoded section counts (roster members, cached
	// secrets): protocol reality is one entry per sampled client.
	maxPersistEntries = 1 << 20
	// maxPersistBlob caps one variable-length byte field (public keys are
	// 32 bytes, signatures 64).
	maxPersistBlob = 1 << 16
)

func appendSecretSection(dst []byte, cache map[string]ratchetedSecret) ([]byte, error) {
	if len(cache) > maxPersistEntries {
		return nil, fmt.Errorf("secagg: %d cached secrets exceed persist cap", len(cache))
	}
	var cnt [4]byte
	binary.LittleEndian.PutUint32(cnt[:], uint32(len(cache)))
	dst = append(dst, cnt[:]...)
	keys := make([]string, 0, len(cache))
	for k := range cache {
		keys = append(keys, k)
	}
	sort.Strings(keys) // deterministic encoding
	var step [8]byte
	for _, k := range keys {
		dst = transport.AppendBlob(dst, []byte(k))
		c := cache[k]
		binary.LittleEndian.PutUint64(step[:], c.step)
		dst = append(dst, step[:]...)
		dst = append(dst, c.sec[:]...)
	}
	return dst, nil
}

func decodeSecretSection(src []byte) (map[string]ratchetedSecret, []byte, error) {
	if len(src) < 4 {
		return nil, nil, fmt.Errorf("secagg: persisted secret section header truncated")
	}
	n := int(binary.LittleEndian.Uint32(src))
	src = src[4:]
	if n > maxPersistEntries {
		return nil, nil, fmt.Errorf("secagg: persisted secret section of %d entries exceeds cap", n)
	}
	// Each entry costs at least 2+8+SharedSize bytes; reject counts the
	// payload cannot carry before allocating.
	if n > len(src)/(2+8+dh.SharedSize) {
		return nil, nil, fmt.Errorf("secagg: persisted secret section of %d entries exceeds payload", n)
	}
	out := make(map[string]ratchetedSecret, n)
	for i := 0; i < n; i++ {
		pub, rest, err := transport.DecodeBlob(src, maxPersistBlob)
		if err != nil {
			return nil, nil, err
		}
		src = rest
		if len(src) < 8+dh.SharedSize {
			return nil, nil, fmt.Errorf("secagg: persisted secret %d truncated", i)
		}
		c := ratchetedSecret{step: binary.LittleEndian.Uint64(src)}
		copy(c.sec[:], src[8:8+dh.SharedSize])
		src = src[8+dh.SharedSize:]
		if _, dup := out[string(pub)]; dup {
			return nil, nil, fmt.Errorf("secagg: duplicate persisted secret entry")
		}
		out[string(pub)] = c
	}
	return out, src, nil
}

// MarshalBinary serializes the session (see the package-level layout note
// above). The output holds raw private keys: wrap it with
// sessionstore.Store before it touches disk.
func (s *Session) MarshalBinary() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.roster) > maxPersistEntries {
		return nil, fmt.Errorf("secagg: roster of %d entries exceeds persist cap", len(s.roster))
	}
	out := []byte{persistMagic, persistTag, persistVersion}
	cpriv := s.cipherKey.PrivateBytes()
	mpriv := s.maskKey.PrivateBytes()
	out = append(out, cpriv[:]...)
	out = append(out, mpriv[:]...)
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], s.nextRatchet)
	out = append(out, b[:]...)
	var flags byte
	if s.taint {
		flags |= 1
	}
	out = append(out, flags)
	binary.LittleEndian.PutUint64(b[:], s.noiseEpoch)
	out = append(out, b[:]...)

	var cnt [4]byte
	binary.LittleEndian.PutUint32(cnt[:], uint32(len(s.roster)))
	out = append(out, cnt[:]...)
	for _, m := range s.roster {
		binary.LittleEndian.PutUint64(b[:], m.From)
		out = append(out, b[:]...)
		out = transport.AppendBlob(out, m.CipherPub)
		out = transport.AppendBlob(out, m.MaskPub)
		out = transport.AppendBlob(out, m.Signature)
	}
	var err error
	if out, err = appendSecretSection(out, s.mask); err != nil {
		return nil, err
	}
	return appendSecretSection(out, s.channel)
}

// UnmarshalSession rebuilds a session from MarshalBinary output. The
// restored session resumes with zero key generations and zero agreements:
// the key pairs come back via dh.FromPrivateBytes and every cached
// pairwise secret is reinstalled at its persisted ratchet step.
func UnmarshalSession(p []byte) (*Session, error) {
	if len(p) < 3 || p[0] != persistMagic || p[1] != persistTag {
		return nil, fmt.Errorf("secagg: not a persisted session")
	}
	version := p[2]
	if version < 1 || version > persistVersion {
		return nil, fmt.Errorf("secagg: persisted session version %d, want <= %d", version, persistVersion)
	}
	src := p[3:]
	if len(src) < 2*32+8+1 {
		return nil, fmt.Errorf("secagg: persisted session truncated")
	}
	var cpriv, mpriv [32]byte
	copy(cpriv[:], src)
	copy(mpriv[:], src[32:])
	src = src[64:]
	cipherKey, err := dh.FromPrivateBytes(cpriv)
	if err != nil {
		return nil, err
	}
	maskKey, err := dh.FromPrivateBytes(mpriv)
	if err != nil {
		return nil, err
	}
	s := &Session{cipherKey: cipherKey, maskKey: maskKey}
	s.nextRatchet = binary.LittleEndian.Uint64(src)
	s.taint = src[8]&1 != 0
	src = src[9:]
	if version >= 2 {
		// v1 blobs predate noise epochs and restore as the default, 0.
		if len(src) < 8 {
			return nil, fmt.Errorf("secagg: persisted noise epoch truncated")
		}
		s.noiseEpoch = binary.LittleEndian.Uint64(src)
		src = src[8:]
	}

	if len(src) < 4 {
		return nil, fmt.Errorf("secagg: persisted roster header truncated")
	}
	n := int(binary.LittleEndian.Uint32(src))
	src = src[4:]
	if n > maxPersistEntries {
		return nil, fmt.Errorf("secagg: persisted roster of %d entries exceeds cap", n)
	}
	if n > 0 {
		// Minimum entry size: id plus three empty blobs.
		if n > len(src)/(8+3*2) {
			return nil, fmt.Errorf("secagg: persisted roster of %d entries exceeds payload", n)
		}
		s.roster = make([]AdvertiseMsg, 0, n)
		for i := 0; i < n; i++ {
			if len(src) < 8 {
				return nil, fmt.Errorf("secagg: persisted roster entry %d truncated", i)
			}
			m := AdvertiseMsg{From: binary.LittleEndian.Uint64(src)}
			src = src[8:]
			if m.CipherPub, src, err = transport.DecodeBlob(src, maxPersistBlob); err != nil {
				return nil, err
			}
			if m.MaskPub, src, err = transport.DecodeBlob(src, maxPersistBlob); err != nil {
				return nil, err
			}
			if m.Signature, src, err = transport.DecodeBlob(src, maxPersistBlob); err != nil {
				return nil, err
			}
			s.roster = append(s.roster, m)
		}
	}
	if s.mask, src, err = decodeSecretSection(src); err != nil {
		return nil, err
	}
	if s.channel, src, err = decodeSecretSection(src); err != nil {
		return nil, err
	}
	if len(src) != 0 {
		return nil, fmt.Errorf("secagg: persisted session: %d trailing bytes", len(src))
	}
	return s, nil
}
