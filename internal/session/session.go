// Package session holds the cross-round state every aggregation substrate
// keeps the same way: the cached stage-0 roster, the continuity
// bookkeeping the re-key handshake reads (in-flight taint, tainted members,
// the derivation-point high-water mark), the cache of pairwise secrets,
// and the at-rest record sections for all of it.
//
// secagg.Session / ServerSession embed ClientState / ServerState, and
// lightsecagg.ServerSession embeds ServerState; each adds only what is
// theirs — key pairs, reconstructed keys, coding matrices.
// lightsecagg.Session embeds neither: it keeps a channel key, its pairwise
// Secrets and an encoding matrix, and its sub-rounds resume from the
// server session's cached roster. Only SecAgg's sessions are resumed by the
// handshake and persisted; LightSecAgg's live one in-process round.
// The package imports neither substrate and never asks which one it
// serves: what a ratchet step derives, and whether taint is ever set, is
// the embedding type's business (see ARCHITECTURE.md, "Sessions and the
// key-reuse threat model").
package session

import (
	"encoding/binary"
	"slices"
	"sync"

	"repro/internal/transcript"
	"repro/internal/transport"
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

// continuity is what both ends of a key generation keep the same way: the
// cached stage-0 roster and the derivation-point high-water mark, under
// one lock that also guards the embedding state's own fields.
type continuity struct {
	mu          sync.Mutex
	roster      []Entry
	nextRatchet uint64
}

// NextRatchet returns the lowest ratchet step this key generation has not
// served yet. Resuming at an earlier step would repeat whatever the step
// derives, so the handshake refuses offers below it.
func (c *continuity) NextRatchet() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nextRatchet
}

// MarkRatchetUsed burns the derivation point at step: the session will
// refuse to resume at or below it. Burning happens at handshake commit
// time, before the round runs, so an aborted round still consumes its
// step. The mark only ever rises.
func (c *continuity) MarkRatchetUsed(step uint64) {
	c.mu.Lock()
	c.nextRatchet = max(c.nextRatchet, step+1)
	c.mu.Unlock()
}

// dropLocked removes the given members' roster entries and returns them;
// the caller holds mu. The kept roster is always a fresh slice, never the
// cached one filtered in place: Roster and RosterFor hand out the cached
// slice, and a concurrent holder must keep seeing the roster it was given.
func (c *continuity) dropLocked(ids []uint64) (dropped []Entry) {
	drop := make(map[uint64]bool, len(ids))
	for _, id := range ids {
		drop[id] = true
	}
	kept := make([]Entry, 0, len(c.roster))
	for _, m := range c.roster {
		if drop[m.From] {
			dropped = append(dropped, m)
		} else {
			kept = append(kept, m)
		}
	}
	c.roster = kept
	return dropped
}

// ClientState is one client's continuity state, driven by the re-key
// handshake (core.RunHandshakeClient) and persisted with the session: the
// cached roster (advertise skip), the ratchet high-water mark, and taint,
// which marks a round in flight or abandoned — set when the client commits
// to a round, cleared only on clean completion. A client that vanished
// mid-round may have had its key material reconstructed by the server, so
// a tainted session must never resume: the next handshake reports the
// taint and forces a re-key.
//
// The zero value is an empty state. Safe for concurrent use.
type ClientState struct {
	continuity
	taint bool
}

// StoreRoster caches a verified stage-0 roster so a later round on the
// same session can skip the advertise stage. The driver is responsible for
// only storing rosters it obtained through a completed advertise stage.
func (c *ClientState) StoreRoster(roster []Entry) {
	cp := slices.Clone(roster)
	c.mu.Lock()
	c.roster = cp
	c.mu.Unlock()
}

// Roster returns the cached stage-0 roster, or nil when none is stored.
func (c *ClientState) Roster() []Entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.roster
}

// StateHash returns the digest of the roster this session could resume on,
// with ok=false when no completed advertise stage was cached. It is the
// client's half of the handshake's shared-state check.
func (c *ClientState) StateHash() ([32]byte, bool) {
	roster := c.Roster()
	if roster == nil {
		return [32]byte{}, false
	}
	return RosterHash(roster), true
}

// Taint marks a round in flight on this session: until ClearTaint, the
// session must not resume. Drivers taint when they commit to a round and
// clear only on clean completion, so a crash-and-restore surfaces as taint
// at the next handshake.
func (c *ClientState) Taint() { c.setTaint(true) }

// ClearTaint marks the in-flight round cleanly completed.
func (c *ClientState) ClearTaint() { c.setTaint(false) }

func (c *ClientState) setTaint(t bool) {
	c.mu.Lock()
	c.taint = t
	c.mu.Unlock()
}

// Tainted reports whether the session carries dropout taint.
func (c *ClientState) Tainted() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.taint
}

// Reset drops the roster, the taint and the ratchet position: the state of
// a fresh key generation (the embedding session's Rekey).
func (c *ClientState) Reset() {
	c.mu.Lock()
	c.roster, c.taint, c.nextRatchet = nil, false, 0
	c.mu.Unlock()
}

// DropMembers removes the given members' roster entries and returns them,
// so the embedding session's RekeyEdges can drop the secrets cached under
// their keys. Taint and the ratchet position are left to the handshake,
// which manages them around a partial resume.
func (c *ClientState) DropMembers(ids []uint64) []Entry {
	if len(ids) == 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropLocked(ids)
}

// ServerState is the aggregator's continuity state, mirroring ClientState:
// the sealed stage-0 roster with the client set it was sealed for, the
// derivation-point high-water mark, and the tainted-member set — the
// clients whose key material this server reconstructed, or may have,
// during the rounds sharing the key generation. A reconstructed key would
// let the server derive that client's future pairwise masks, so the next
// handshake re-keys exactly those members' edges. A substrate whose server
// never reconstructs anything never calls MarkTainted, and the set stays
// empty.
//
// The zero value is an empty state. Safe for concurrent use.
type ServerState struct {
	continuity
	rosterIDs []uint64 // the client ids the roster was sealed for
	tainted   map[uint64]bool
}

// StoreRoster caches the sealed stage-0 roster together with the client
// set it was sealed for.
func (s *ServerState) StoreRoster(roster []Entry, clientIDs []uint64) {
	r, ids := slices.Clone(roster), slices.Clone(clientIDs)
	s.mu.Lock()
	s.roster, s.rosterIDs = r, ids
	s.mu.Unlock()
}

// RosterFor returns the cached roster if it was sealed for exactly the
// given client set, else nil.
func (s *ServerState) RosterFor(clientIDs []uint64) []Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.roster == nil || !slices.Equal(s.rosterIDs, clientIDs) {
		return nil
	}
	return s.roster
}

// StateHashFor returns the digest of the roster this session could resume
// a round over clientIDs on, with ok=false when none is cached for that
// client set. The roster need not cover every client: members it misses
// (dead or unheard at the sealing advertise stage) are reported by
// MissingMembers and folded into the handshake's divergent subset — they
// re-advertise under a partial resume instead of forcing a full re-key of
// every cached edge, and instead of being silently excluded forever.
func (s *ServerState) StateHashFor(clientIDs []uint64) ([32]byte, bool) {
	roster := s.RosterFor(clientIDs)
	if len(roster) == 0 {
		return [32]byte{}, false
	}
	return RosterHash(roster), true
}

// MissingMembers returns the subset of clientIDs the cached roster (for
// exactly that client set) does not cover. These members hold no advertised
// keys in the current generation, so a resumed round must treat them as
// divergent: they re-advertise and their edges agree fresh. Returns nil
// when no roster is cached at all (a full re-key applies then anyway).
func (s *ServerState) MissingMembers(clientIDs []uint64) []uint64 {
	roster := s.RosterFor(clientIDs)
	if roster == nil {
		return nil
	}
	have := make(map[uint64]bool, len(roster))
	for _, m := range roster {
		have[m.From] = true
	}
	var out []uint64
	for _, id := range clientIDs {
		if !have[id] {
			out = append(out, id)
		}
	}
	return out
}

// Resumable reports whether a round over clientIDs can skip the advertise
// stage: the cached roster was sealed for exactly clientIDs, its members
// are exactly expect — the clients alive at the advertise stage, both
// ascending, so a client that was dead when the roster was sealed but has
// since recovered forces a fresh advertise stage instead of being silently
// excluded forever — and every member is live: it has a client session
// that still advertises the cached entry's keys.
func (s *ServerState) Resumable(clientIDs, expect []uint64, live func(Entry) bool) bool {
	roster := s.RosterFor(clientIDs)
	if roster == nil || len(roster) != len(expect) {
		return false
	}
	for i, m := range roster {
		if m.From != expect[i] || !live(m) {
			return false
		}
	}
	return true
}

// MarkTainted records clients whose sessions must not survive into another
// round on this key generation: the server reconstructed their key
// material.
func (s *ServerState) MarkTainted(ids ...uint64) {
	if len(ids) == 0 {
		return
	}
	s.mu.Lock()
	if s.tainted == nil {
		s.tainted = make(map[uint64]bool, len(ids))
	}
	for _, id := range ids {
		s.tainted[id] = true
	}
	s.mu.Unlock()
}

// TaintedMembers returns the ids whose key material this server
// reconstructed (or may have) during this key generation, ascending. The
// handshake folds them into the divergent subset of a partial resume:
// re-keying exactly those members' edges removes the reconstruction hazard
// without burning the rest of the graph's cached secrets.
func (s *ServerState) TaintedMembers() []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.taintedLocked()
}

// taintedLocked lists the taint set ascending (a deterministic order for
// the handshake and the server record alike); the caller holds mu.
func (s *ServerState) taintedLocked() []uint64 {
	return transport.SortedKeys(s.tainted)
}

// Reset drops the roster, the taint set and the ratchet position: the next
// round collects a fresh advertise stage from scratch (the embedding
// session's Rekey).
func (s *ServerState) Reset() {
	s.mu.Lock()
	s.roster, s.rosterIDs, s.tainted, s.nextRatchet = nil, nil, nil, 0
	s.mu.Unlock()
}

// DropMembers removes the given members' roster entries and taint marks
// and returns the entries, so the embedding session's RekeyEdges can drop
// whatever it cached under their keys. Only those members' edges re-key
// next round: a past reconstruction poisons exactly the dropper's edges
// instead of the whole key generation.
func (s *ServerState) DropMembers(ids []uint64) []Entry {
	if len(ids) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range ids {
		delete(s.tainted, id)
	}
	return s.dropLocked(ids)
}
