// Package session holds what both aggregation substrates' sessions read
// the same way: the stage-0 roster entry (Entry) with its wire and at-rest
// layout, the record magic, the route AD every share ciphertext is sealed
// under, the roster digest the re-key handshake compares (RosterHash), and
// the one cache of pairwise secrets (Secrets) with its record section.
//
// Continuity state — the cached roster a session resumes on, the ratchet
// high-water mark, a client's in-flight taint and a server's tainted
// members — is not here: only a SecAgg server reconstructs a dropped
// client's mask key, so only secagg.Session and secagg.ServerSession keep
// it, and persist it (secagg/persist.go). LightSecAgg's server session
// keeps a roster and the id set it was sealed for, nothing else. The
// package imports neither substrate (see ARCHITECTURE.md, "Sessions and
// the key-reuse threat model").
package session

import (
	"encoding/binary"

	"repro/internal/transcript"
)

// RouteADSize is the length of a route AD.
const RouteADSize = 24

// AppendRouteAD appends the associated data every share ciphertext is
// sealed under (PROTOCOL.md, "Route AD"): [round:8][from:8][to:8],
// little-endian. It binds the sub-round and the (sender, recipient) route,
// so the relaying server can neither re-route a share nor replay one from
// another sub-round of the same session undetected.
func AppendRouteAD(dst []byte, round, from, to uint64) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, round)
	dst = binary.LittleEndian.AppendUint64(dst, from)
	return binary.LittleEndian.AppendUint64(dst, to)
}

// Entry is one member's stage-0 advertisement as rosters cache, hash and
// persist it. SecAgg fills both keys; LightSecAgg advertises one channel
// key, carried as CipherPub with an empty MaskPub — the shape the
// transcript layer's roster leaf already has.
type Entry struct {
	From      uint64
	CipherPub []byte // c^PK: channel-encryption key agreement
	MaskPub   []byte // s^PK: pairwise-mask key agreement (SecAgg only)
	Signature []byte // SIG.sign(d^SK, c^PK ∥ s^PK); empty when semi-honest
}

// RosterEntries converts a sealed stage-0 roster into the transcript
// layer's leaf form: every member's (id, cipher pub, mask pub).
// Signatures are excluded: they authenticate the advertisement but do not
// change the key material a resumed round derives from. The
// length-prefixed leaf encoding keeps a one-key entry from ever aliasing a
// two-key one.
func RosterEntries(roster []Entry) []transcript.RosterEntry {
	out := make([]transcript.RosterEntry, len(roster))
	for i, m := range roster {
		out[i] = transcript.RosterEntry{ID: m.From, CipherPub: m.CipherPub, MaskPub: m.MaskPub}
	}
	return out
}

// RosterHash returns the canonical digest of a sealed stage-0 roster: the
// Merkle root of the transcript layer's roster subtree
// (transcript.RosterRoot), one leaf per member in roster order. Server and
// clients cache the identical broadcast roster, so equal hashes mean both
// sides hold the same key generation for the same client set — the
// shared-state check of the re-key handshake. Because the handshake pins
// this exact root, a round transcript's roster commitment is the same
// value the client already agreed to at offer time, and an inclusion proof
// for the client's own advertise keys verifies against it (see
// internal/transcript).
func RosterHash(roster []Entry) [32]byte {
	return transcript.RosterRoot(RosterEntries(roster))
}
