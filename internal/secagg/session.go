package secagg

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"

	"repro/internal/aead"
	"repro/internal/dh"
	"repro/internal/engine"
	"repro/internal/field"
	"repro/internal/prg"
	"repro/internal/ring"
	"repro/internal/session"
	"repro/internal/shamir"
	"repro/internal/transport"
)

// Key-agreement amortization (the "agree once, read a window per chunk"
// layer). X25519 agreement is the dominant fixed cost of a round: a
// 64-client complete-graph round spends ~57% of its time in ~2·n·(n−1)
// agreements, and the per-chunk drivers multiply that by the chunk count m
// because every chunk historically built an independent secagg round with
// fresh key pairs. A Session caches one participant's key pairs and the
// pairwise shared secrets they produce, so the m chunks of one logical
// round (and, with ratcheting, consecutive rounds) perform n·k agreements
// total instead of m·n·k:
//
//   - pairwise agreement happens once per (round, pair) on first use and is
//     cached by peer public key, together with the pair's mask stream
//     (pairMaskSeed), keyed once per ratchet step;
//   - the chunks' masks are disjoint windows of that one stream, laid end
//     to end: the sub-round at Config.MaskEpoch = e reads window e
//     (maskWindow), so epoch 0 is byte-identical to the session-less
//     derivation and each party draws a chunk's masks from where the
//     previous chunk left the stream;
//   - consecutive rounds sharing a session ratchet every cached secret one
//     dh.Ratchet step forward (Config.KeyRatchet = round offset) instead of
//     re-advertising fresh keys, which is exactly the separation of one
//     key-agreement phase from many masked aggregations that SecAgg+
//     (Bell et al., CCS 2020) assumes.
//
// The Shamir deal is amortized the same way — deal once per ratchet step,
// read per-chunk self masks as windows. The sub-round at MaskEpoch 0 deals
// and the session keeps the deal, with the self-mask stream of its b_u; a
// later sub-round of the step that would deal the same (deal.fits, no
// in-protocol XNoise) reuses it, and chunk e masks with window e of that
// stream. The step's reveal ledger keeps a client from ever revealing both
// kinds of share of one peer. ARCHITECTURE.md ("Sessions and the key-reuse
// threat model", rule 1) states the rules.
//
// Threat-model caveats (see ARCHITECTURE.md, "Sessions and the key-reuse
// threat model"): ratcheting separates per-round masks
// and bounds key lifetime, but the X25519 private keys persist for
// re-sharing, so session reuse does not provide forward secrecy against
// endpoint-state compromise; and a client whose mask key was reconstructed
// by the server (it dropped mid-round) must not reuse that session — the
// re-key handshake re-keys a tainted member's edges, and core.RunRound never
// keeps a session past its round.

// pairMaskSeed derives the PRG seed for the pairwise mask between two
// clients from their (possibly ratcheted) shared secret, byte-identical to
// the historical derivation (pinned by the golden seed-identity test). The
// self mask's seed is prg.FromFieldElement(b_u).
func pairMaskSeed(secret [dh.SharedSize]byte) prg.Seed {
	return prg.NewSeed([]byte("dordis/secagg/pairmask/v1"), secret[:])
}

// newPairMaskStream keys the pairwise mask stream of a shared secret.
func newPairMaskStream(secret [dh.SharedSize]byte) *prg.Stream {
	return prg.NewStream(pairMaskSeed(secret))
}

// maskWindowBits bounds the mask windows: Config.Validate refuses an epoch
// of 2^maskWindowBits or more and a mask of more than 2^maskWindowBits
// keystream bytes, so every window (maskWindow) lies inside the 2^64-byte
// offset range.
const maskWindowBits = 32

// maskWindow returns the keystream byte offset of the sub-round's mask
// window. The windows of one ratchet step lie end to end: the sub-round at
// MaskEpoch e reads bytes [e·W, (e+1)·W) of each mask's one stream, W =
// ring.MaskBytes(Bits, Dim) the bytes its mask reads, so epoch 0 reads
// what a session-less round reads and chunk e+1 starts where an equal
// chunk e stopped. Windows of unequal sub-rounds stay disjoint while W
// never shrinks as e grows (ring.ChunkBounds); RoundSessions refuses a
// sub-round whose window overlaps one already served (ErrWindowServed).
func (c *Config) maskWindow() uint64 { return c.MaskEpoch * ring.MaskBytes(c.Bits, c.Dim) }

// Errors of the one-deal-per-step rule: a sub-round reusing its step's
// deal was delivered other ciphertexts than the deal first received; an
// unmask request asks for the other kind of share (self seed or mask key)
// of a peer than this client revealed earlier in the step.
var (
	ErrDealMismatch      = errors.New("secagg: delivered shares differ from the step's deal")
	ErrConflictingReveal = errors.New("secagg: unmask request conflicts with an earlier reveal")
)

// deal is what one client dealt at MaskEpoch 0 of a ratchet step, and what
// it received and revealed against it, kept so the step's later sub-rounds
// reuse it. Written by one sub-round's client at a time (the chunks of a
// round run their protocol stage one after another).
type deal struct {
	cfg        Config              // the sub-round that dealt; its Round is in the bundles' AD
	roster     []AdvertiseMsg      // the verified roster, ascending by id
	selfStream *prg.Stream         // PRG(b_u): each sub-round reads its window
	out        []EncryptedShareMsg // the sealed outgoing bundles

	// masks is the self and pairwise masks over u2, resolved at the first
	// delivery; each sub-round re-aims them at its window (Client.masks).
	masks []ring.Mask

	channelKey map[uint64]*aead.Key
	delivered  map[uint64][]byte       // peer → ciphertext of the first delivery; nil until then
	u2         []uint64                // the first delivery's senders and the client, ascending
	seen       []bool                  // redelivered's scratch, by u2 index
	opened     map[uint64]*ShareBundle // own bundle and the peers' opened so far

	// The step's first reveal and the U3 (ascending) it answered: a later
	// sub-round naming the same U3 reveals exactly it.
	reveal   *UnmaskMsg
	revealU3 []uint64
}

// redelivered reports whether cts is the deal's first delivery again:
// as many ciphertexts, each from a distinct peer of that delivery and
// equal to what that peer sent then.
func (d *deal) redelivered(cts []EncryptedShareMsg) bool {
	if len(cts) != len(d.delivered) {
		return false
	}
	seen := d.seen
	clear(seen)
	for _, m := range cts {
		i, _ := slices.BinarySearch(d.u2, m.From)
		first, ok := d.delivered[m.From]
		if !ok || seen[i] || !bytes.Equal(m.Ciphertext, first) {
			return false
		}
		seen[i] = true
	}
	return true
}

// fits reports whether a sub-round of cfg, sharing keys against roster,
// would deal exactly what d dealt for client id: the same abscissas, the
// same threshold, the same recipients and the same keys. Under the
// complete graph on both sides the recipients are the other ClientIDs, so
// only a graph's neighbourhoods are compared (from the validated memo).
func (d *deal) fits(cfg Config, id uint64, roster []AdvertiseMsg) bool {
	return cfg.Threshold == d.cfg.Threshold && cfg.Registry == d.cfg.Registry &&
		slices.Equal(cfg.ClientIDs, d.cfg.ClientIDs) &&
		(cfg.Graph == nil && d.cfg.Graph == nil ||
			slices.Equal(cfg.neighborhood(id), d.cfg.neighborhood(id))) &&
		slices.EqualFunc(roster, d.roster, func(a, b AdvertiseMsg) bool {
			return a.From == b.From && bytes.Equal(a.CipherPub, b.CipherPub) &&
				bytes.Equal(a.MaskPub, b.MaskPub) && bytes.Equal(a.Signature, b.Signature)
		})
}

// Session is one client's amortized key-agreement state: the two X25519
// key pairs it advertises and the pairwise secrets agreed with each peer,
// cached across the sub-rounds (pipeline chunks) and rounds that share the
// session, with the continuity state the re-key handshake
// (core.RunHandshakeClient) drives and the session persists: the cached
// roster (advertise skip), the ratchet high-water mark, and taint, which
// marks a round in flight or abandoned — set when the client commits to a
// round, cleared only on clean completion. A client that vanished
// mid-round may have had its mask key reconstructed by the server, so a
// tainted session must never resume: the next handshake reports the taint
// and forces a re-key. A ratchet step derives mask streams, so resuming
// below the mark would repeat them. Safe for concurrent use — mask
// expansion fans agreements across a worker pool.
//
// The session also keeps its client's one buffer (NewClient), leased from
// buffers, across the sub-rounds and rounds that share it, re-sliced to
// each sub-round's Dim and grown only when Dim grows: a sub-round's masked
// upload and the sum it receives live there until the session's next
// sub-round or RoundSessions.Release.
type Session struct {
	mu        sync.Mutex  // guards every field but the two secret caches, which lock themselves
	cipherKey *dh.KeyPair // c^PK / c^SK
	maskKey   *dh.KeyPair // s^PK / s^SK

	roster      []AdvertiseMsg // the last completed advertise stage's roster; nil when none
	nextRatchet uint64         // the lowest ratchet step not served yet
	taint       bool           // a round in flight or abandoned

	mask    session.Secrets // peer mask pub → secret
	channel session.Secrets // peer cipher pub → channel key

	// The state of ratchet step step: its deal and its reveal ledger (peer
	// → revealed a self-seed share, else a mask-key share). Both start
	// empty at every other step.
	step     uint64
	deal     *deal
	revealed map[uint64]bool

	buf []uint64 // the client's one buffer, at the last sub-round's Dim
}

// buffers is the free list client buffers are leased from, bounded by two
// flat_cold cohorts (64 clients, 2048-coordinate chunks). A session nobody
// releases (a wire client's) keeps its lease; on a list in-process rounds
// never fill, that lease is a make.
var buffers = transport.NewFreeList[uint64](2*64*2048, 2*64*2048)

// buffer returns the session's buffer re-sliced to dim; if dim outgrows
// it, the buffer goes back to buffers and a longer one is leased.
func (s *Session) buffer(dim int) []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cap(s.buf) < dim {
		buffers.Release(s.buf)
		s.buf = buffers.Lease(dim)
	}
	s.buf = s.buf[:dim]
	return s.buf
}

// release hands the session's buffer back to buffers; a later sub-round
// on the session leases anew.
func (s *Session) release() {
	s.mu.Lock()
	defer s.mu.Unlock()
	buffers.Release(s.buf)
	s.buf = nil
}

// atStepLocked moves the step state to step, emptying it if it belonged to
// another; the caller holds mu.
func (s *Session) atStepLocked(step uint64) {
	if step != s.step {
		s.step, s.deal, s.revealed = step, nil, nil
	}
}

// dealAt returns the deal kept for ratchet step step, or nil.
func (s *Session) dealAt(step uint64) *deal {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.atStepLocked(step)
	return s.deal
}

// keepDeal keeps d as ratchet step step's deal.
func (s *Session) keepDeal(step uint64, d *deal) {
	s.mu.Lock()
	s.atStepLocked(step)
	s.deal = d
	s.mu.Unlock()
}

// reveal enters into step's ledger that this client reveals, for each peer
// in peers, a self-seed share if the peer is in live (ascending) and a
// mask-key share otherwise. It refuses, entering nothing, if any peer was
// revealed the other way earlier in the step.
func (s *Session) reveal(step uint64, peers, live []uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.atStepLocked(step)
	for _, v := range peers {
		_, self := slices.BinarySearch(live, v)
		if prev, ok := s.revealed[v]; ok && prev != self {
			return fmt.Errorf("%w: peer %d at ratchet step %d", ErrConflictingReveal, v, step)
		}
	}
	if s.revealed == nil {
		s.revealed = make(map[uint64]bool, len(peers))
	}
	for _, v := range peers {
		_, self := slices.BinarySearch(live, v)
		s.revealed[v] = self
	}
	return nil
}

// NewSession generates the session's key pairs with randomness from rand.
func NewSession(rand io.Reader) (*Session, error) {
	s := &Session{}
	if err := s.Rekey(rand); err != nil {
		return nil, err
	}
	return s, nil
}

// keyPairs returns the session's current key pairs under the lock (Rekey
// swaps them, so concurrent readers must not touch the fields directly).
func (s *Session) keyPairs() (cipherKey, maskKey *dh.KeyPair) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cipherKey, s.maskKey
}

// maskStream returns the pairwise mask stream with the peer identified by
// its advertised mask public key, at the given ratchet step: the secret is
// agreed on first use, and the stream keyed once per step beside it.
func (s *Session) maskStream(peerPub []byte, step uint64) (*prg.Stream, error) {
	_, maskKey := s.keyPairs()
	return s.mask.StreamAt(peerPub, step,
		func() ([dh.SharedSize]byte, error) { return maskKey.Agree(peerPub) }, newPairMaskStream)
}

// channelKey returns the channel-encryption key with the peer identified
// by its advertised cipher public key, at the given ratchet step.
func (s *Session) channelKey(peerPub []byte, step uint64) (*aead.Key, error) {
	cipherKey, _ := s.keyPairs()
	return s.channel.KeyAt(peerPub, step,
		func() ([dh.SharedSize]byte, error) { return cipherKey.Agree(peerPub) })
}

// StoreRoster caches the verified stage-0 roster of a completed advertise
// stage, so a later round on the session can skip the advertise stage; the
// driver stores only rosters it obtained that way. The session keeps the
// slice it is handed — the step's deal borrows the same one (ShareKeys) —
// so nobody writes to it afterwards, and RekeyEdges never filters it in
// place.
func (s *Session) StoreRoster(roster []AdvertiseMsg) {
	s.mu.Lock()
	s.roster = roster
	s.mu.Unlock()
}

// Roster returns the cached stage-0 roster, or nil when none is stored.
func (s *Session) Roster() []AdvertiseMsg {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.roster
}

// StateHash returns the digest of the roster this session could resume on,
// with ok=false when no completed advertise stage was cached. It is the
// client's half of the handshake's shared-state check.
func (s *Session) StateHash() ([32]byte, bool) {
	roster := s.Roster()
	if roster == nil {
		return [32]byte{}, false
	}
	return session.RosterHash(roster), true
}

// Taint marks a round in flight on this session: until ClearTaint, the
// session must not resume. Drivers taint when they commit to a round and
// clear only on clean completion, so a crash-and-restore surfaces as taint
// at the next handshake.
func (s *Session) Taint() { s.setTaint(true) }

// ClearTaint marks the in-flight round cleanly completed.
func (s *Session) ClearTaint() { s.setTaint(false) }

func (s *Session) setTaint(t bool) {
	s.mu.Lock()
	s.taint = t
	s.mu.Unlock()
}

// Tainted reports whether the session carries dropout taint.
func (s *Session) Tainted() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.taint
}

// NextRatchet returns the lowest ratchet step this key generation has not
// served yet. Resuming at an earlier step would repeat the mask streams
// the step derives, so the handshake refuses offers below it.
func (s *Session) NextRatchet() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nextRatchet
}

// MarkRatchetUsed burns the derivation point at step: the session will
// refuse to resume at or below it. Burning happens at handshake commit
// time, before the round runs, so an aborted round still consumes its
// step. The mark only ever rises.
func (s *Session) MarkRatchetUsed(step uint64) {
	s.mu.Lock()
	s.nextRatchet = max(s.nextRatchet, step+1)
	s.mu.Unlock()
}

// Rekey replaces the session's key pairs with fresh ones and drops every
// cached secret, the deal, the reveal ledger, the roster, the taint, and
// the ratchet position — the clean re-key the handshake falls back to
// whenever resume is unsafe.
func (s *Session) Rekey(rand io.Reader) error {
	cipherKey, err := dh.Generate(rand)
	if err != nil {
		return err
	}
	maskKey, err := dh.Generate(rand)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.cipherKey, s.maskKey = cipherKey, maskKey
	s.deal, s.revealed = nil, nil
	s.roster, s.taint, s.nextRatchet = nil, false, 0
	s.mu.Unlock()
	s.mask.Clear()
	s.channel.Clear()
	return nil
}

// RekeyEdges drops the cached pairwise secrets and roster entries for the
// given divergent peers while keeping this session's own key pairs and
// every other edge — the per-edge invalidation behind the handshake's
// partial resume. The divergent members advertise fresh keys in the next
// round, so only the edges touching them re-agree (their mask streams
// restart from the new secrets); the rest of the graph keeps its cached
// secrets and skips advertise. The step's deal goes too (it was dealt
// against the old roster), and so do the divergent members' ledger
// entries: their next secrets are new ones. Taint and the ratchet position
// are left to the handshake, which manages them around a partial resume.
func (s *Session) RekeyEdges(ids []uint64) {
	s.mu.Lock()
	s.deal = nil
	for _, id := range ids {
		delete(s.revealed, id)
	}
	var dropped []AdvertiseMsg
	s.roster, dropped = dropMembers(s.roster, ids)
	s.mu.Unlock()
	for _, m := range dropped {
		s.mask.Delete(string(m.MaskPub))
		s.channel.Delete(string(m.CipherPub))
	}
}

// dropMembers splits roster into the entries of members not in ids and
// those of members in ids. The kept roster is a fresh slice, never roster
// filtered in place: Roster and RosterFor hand out the cached slice, and a
// holder must keep seeing the roster it was given. With no ids it returns
// roster itself.
func dropMembers(roster []AdvertiseMsg, ids []uint64) (kept, dropped []AdvertiseMsg) {
	if len(ids) == 0 {
		return roster, nil
	}
	kept = make([]AdvertiseMsg, 0, len(roster))
	for _, m := range roster {
		if slices.Contains(ids, m.From) {
			dropped = append(dropped, m)
		} else {
			kept = append(kept, m)
		}
	}
	return kept, dropped
}

// ServerSession is the aggregator's amortized key-agreement state: the
// reconstructed-and-verified mask keys of dropped clients, the pairwise
// secrets derived from them with their mask streams, the self-mask
// streams of reconstructed self seeds with the shares they came from, and
// the last share stage's routing, cached across the sub-rounds and
// rounds that share the session, with the continuity state the re-key
// handshake drives and the session persists (MarshalBinary): the sealed
// stage-0 roster with the client set it was sealed for, the ratchet
// high-water mark, and the tainted members — the clients whose key
// material this server reconstructed during the rounds sharing the key
// generation. A reconstructed key would let the server derive that
// client's future pairwise masks, so the next handshake re-keys exactly
// those members' edges. Safe for concurrent use.
type ServerSession struct {
	mu sync.Mutex // guards every field but the secret cache, which locks itself

	roster      []AdvertiseMsg  // the sealed stage-0 roster; nil when none
	rosterIDs   []uint64        // the client ids the roster was sealed for
	nextRatchet uint64          // the lowest ratchet step not served yet
	tainted     map[uint64]bool // clients whose key material was reconstructed

	keys    map[string]*dh.KeyPair // advertised mask pub → verified key
	selves  map[uint64]selfMask    // client → its last reconstructed self seed's stream
	secrets session.Secrets        // canonical pub pair → secret and mask stream

	routed *routing // the last share stage's routing; nil when none
}

// selfMask is a self seed b_u, its mask stream PRG(b_u), and what b_u was
// last reconstructed from: shares, at ratchet step step, threshold t.
type selfMask struct {
	seed   field.Element
	stream *prg.Stream
	step   uint64
	t      int
	shares []shamir.Share
}

// routing is what a server routed at one ratchet step's share stage: each
// sender's upload, as AddShare was handed it, and the deliveries routed
// from them. Routing is a function of the uploads, so a later sub-round
// of the step whose senders upload exactly these lists again would route
// exactly these deliveries (Server.AddShare). Nobody writes to a list in
// them, and only the next share stage that routes afresh empties the maps
// (takeRouting).
type routing struct {
	step       uint64
	uploads    map[uint64][]EncryptedShareMsg // sender → its upload
	deliveries map[uint64][]EncryptedShareMsg // recipient → its delivery
}

// NewServerSession returns an empty server session.
func NewServerSession() *ServerSession {
	return &ServerSession{keys: make(map[string]*dh.KeyPair)}
}

// StoreRoster caches the sealed stage-0 roster together with the client
// set it was sealed for, copying both: the caller's slices stay its own.
func (s *ServerSession) StoreRoster(roster []AdvertiseMsg, clientIDs []uint64) {
	r, ids := slices.Clone(roster), slices.Clone(clientIDs)
	s.mu.Lock()
	s.roster, s.rosterIDs = r, ids
	s.mu.Unlock()
}

// RosterFor returns the cached roster if it was sealed for exactly the
// given client set, else nil.
func (s *ServerSession) RosterFor(clientIDs []uint64) []AdvertiseMsg {
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
func (s *ServerSession) StateHashFor(clientIDs []uint64) ([32]byte, bool) {
	roster := s.RosterFor(clientIDs)
	if len(roster) == 0 {
		return [32]byte{}, false
	}
	return session.RosterHash(roster), true
}

// MissingMembers returns the subset of clientIDs the cached roster (for
// exactly that client set) does not cover. These members hold no advertised
// keys in the current generation, so a resumed round must treat them as
// divergent: they re-advertise and their edges agree fresh. Returns nil
// when no roster is cached at all (a full re-key applies then anyway).
func (s *ServerSession) MissingMembers(clientIDs []uint64) []uint64 {
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

// TaintedMembers returns the ids whose key material this server
// reconstructed (or may have) during this key generation, ascending. The
// handshake folds them into the divergent subset of a partial resume:
// re-keying exactly those members' edges removes the reconstruction hazard
// without burning the rest of the graph's cached secrets.
func (s *ServerSession) TaintedMembers() []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return transport.SortedKeys(s.tainted)
}

// NextRatchet returns the lowest ratchet step this key generation has not
// served yet; the handshake proposes a resume at it.
func (s *ServerSession) NextRatchet() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nextRatchet
}

// MarkRatchetUsed burns the derivation point at step, as
// Session.MarkRatchetUsed does. The mark only ever rises.
func (s *ServerSession) MarkRatchetUsed(step uint64) {
	s.mu.Lock()
	s.nextRatchet = max(s.nextRatchet, step+1)
	s.mu.Unlock()
}

// taintKey adds client v to the tainted members and returns the
// reconstructed key pair cached under v's advertised mask key pub, or nil.
func (s *ServerSession) taintKey(v uint64, pub []byte) *dh.KeyPair {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tainted == nil {
		s.tainted = make(map[uint64]bool)
	}
	s.tainted[v] = true
	return s.keys[string(pub)]
}

// key returns the cached reconstructed key pair advertised as pub, or nil.
func (s *ServerSession) key(pub []byte) *dh.KeyPair {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.keys[string(pub)]
}

// storeKey caches a reconstructed key pair that was verified against the
// advertised public key pub.
func (s *ServerSession) storeKey(pub []byte, kp *dh.KeyPair) {
	s.mu.Lock()
	s.keys[string(pub)] = kp
	s.mu.Unlock()
}

// pairKey appends to dst the canonical cache key for an unordered
// public-key pair (the derived secret is symmetric in the two ends): the
// lesser key, then the greater.
func pairKey(dst, a, b []byte) []byte {
	if bytes.Compare(a, b) > 0 {
		a, b = b, a
	}
	return append(append(dst, a...), b...)
}

// pairStream returns the pairwise mask stream between the reconstructed key
// kp and the peer public key, at the given ratchet step, agreeing on first
// use and caching secret and stream by the unordered key pair, which it
// builds on the stack.
func (s *ServerSession) pairStream(kp *dh.KeyPair, peerPub []byte, step uint64) (*prg.Stream, error) {
	var key [2 * dh.PublicKeySize]byte
	return s.secrets.StreamAt(pairKey(key[:0], kp.PublicBytes(), peerPub), step,
		func() ([dh.SharedSize]byte, error) { return kp.Agree(peerPub) }, newPairMaskStream)
}

// keptSelf returns the mask stream of client u's self seed if the session
// reconstructed it at ratchet step step, under threshold t, from exactly
// shares — byte-equal, in order — else nil. Interpolation is a function of
// its shares and t, so the same shares give the same b_u: a sub-round on
// the step's deal, whose reveals repeat the first's, reconstructs nothing.
func (s *ServerSession) keptSelf(u, step uint64, t int, shares []shamir.Share) *prg.Stream {
	s.mu.Lock()
	defer s.mu.Unlock()
	if m, ok := s.selves[u]; ok && m.step == step && m.t == t && slices.Equal(m.shares, shares) {
		return m.stream
	}
	return nil
}

// keepSelf records b as client u's self seed, reconstructed at ratchet
// step step under threshold t from shares, of which it keeps a copy. The
// stream PRG(b) is keyed once for as long as u's seed stays b — the
// sub-rounds of a step that reuse one deal.
func (s *ServerSession) keepSelf(u uint64, b field.Element, step uint64, t int, shares []shamir.Share) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.selves == nil {
		s.selves = make(map[uint64]selfMask)
	}
	m, ok := s.selves[u]
	if !ok || m.seed != b {
		m.seed, m.stream = b, prg.NewStreamFromElement(b)
	}
	m.step, m.t, m.shares = step, t, append(m.shares[:0], shares...)
	s.selves[u] = m
}

// selfStream returns the self-mask stream of client u's last kept self
// seed (keepSelf).
func (s *ServerSession) selfStream(u uint64) *prg.Stream {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.selves[u].stream
}

// routingAt returns the share routing kept for ratchet step step, or nil.
func (s *ServerSession) routingAt(step uint64) *routing {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.routed == nil || s.routed.step != step {
		return nil
	}
	return s.routed
}

// takeRouting takes the kept routing out of the session and returns it
// emptied — or a new one — for a share stage to fill and keep
// (keepRouting): the last stage's deliveries have been handed out, and
// a routing is filled only by the stage that routed afresh.
func (s *ServerSession) takeRouting() *routing {
	s.mu.Lock()
	r := s.routed
	s.routed = nil
	s.mu.Unlock()
	if r == nil {
		return &routing{uploads: make(map[uint64][]EncryptedShareMsg), deliveries: make(map[uint64][]EncryptedShareMsg)}
	}
	clear(r.uploads)
	clear(r.deliveries)
	return r
}

// keepRouting keeps r as its step's share routing.
func (s *ServerSession) keepRouting(r *routing) {
	s.mu.Lock()
	s.routed = r
	s.mu.Unlock()
}

// RekeyEdges drops the cached state touching the given divergent members —
// their roster entries and taint marks, any reconstructed key pairs, and
// every pairwise secret with one end at a divergent member — while keeping
// all other edges. This is the server half of the handshake's partial
// resume: a past reconstruction poisons exactly the dropper's edges
// instead of the whole key generation.
func (s *ServerSession) RekeyEdges(ids []uint64) {
	s.mu.Lock()
	s.routed = nil
	var dropped []AdvertiseMsg
	s.roster, dropped = dropMembers(s.roster, ids)
	for _, id := range ids {
		delete(s.tainted, id)
	}
	dropPubs := make(map[string]bool, len(dropped))
	for _, m := range dropped {
		dropPubs[string(m.MaskPub)] = true
		delete(s.keys, string(m.MaskPub))
	}
	s.mu.Unlock()
	if len(dropped) == 0 {
		return
	}
	// pairKey concatenates two mask public keys; drop the pair when either
	// half belongs to a divergent member.
	s.secrets.DeleteFunc(func(k string) bool {
		return len(k) == 2*dh.PublicKeySize &&
			(dropPubs[k[:dh.PublicKeySize]] || dropPubs[k[dh.PublicKeySize:]])
	})
}

// Rekey drops every cached key, secret, stream, roster, taint, and the
// ratchet position: the next round collects a fresh advertise stage from
// scratch.
func (s *ServerSession) Rekey() {
	s.mu.Lock()
	clear(s.keys)
	clear(s.selves)
	s.roster, s.rosterIDs, s.tainted, s.nextRatchet, s.routed = nil, nil, nil, 0, nil
	s.mu.Unlock()
	s.secrets.Clear()
}

// ErrWindowServed refuses a sub-round whose mask window overlaps one the
// round's sessions already served at the same ratchet step.
var ErrWindowServed = errors.New("secagg: mask window already served")

// RoundSessions bundles the per-participant sessions a driver shares
// across the chunked sub-rounds of one logical round (core.RunRound builds
// one per round; a driver that keeps one longer advances Config.KeyRatchet
// per round). It also enforces derivation-point uniqueness: the mask
// windows served at one KeyRatchet must be disjoint (ErrWindowServed),
// since two aggregations reading one keystream byte would share pairwise
// masks — and the server, which legitimately reconstructs self-mask seeds
// each round, could then difference the two uploads and recover individual
// update deltas. It keeps RunWithSessions' parties too (parties), so it
// runs one sub-round at a time, as the deals its client sessions keep
// already require.
type RoundSessions struct {
	Client map[uint64]*Session
	Server *ServerSession

	mu     sync.Mutex
	served map[uint64][][2]uint64 // KeyRatchet → windows served, [first, last] keystream bytes

	kept    *parties // RunWithSessions' parties, over keptIDs
	keptIDs []uint64
}

// partiesFor returns the parties kept for a sub-round over ids, keeping
// new ones when there are none or they were built for another client set.
func (rs *RoundSessions) partiesFor(ids []uint64) *parties {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.kept == nil || !slices.Equal(rs.keptIDs, ids) {
		rs.kept, rs.keptIDs = new(parties), slices.Clone(ids)
	}
	return rs.kept
}

// markServed records the mask window cfg's sub-round reads and refuses
// one that overlaps a window already served at its ratchet step.
func (rs *RoundSessions) markServed(cfg *Config) error {
	first := cfg.maskWindow()
	last := first + ring.MaskBytes(cfg.Bits, cfg.Dim) - 1 // ≤ 2^64−1 under Validate
	rs.mu.Lock()
	defer rs.mu.Unlock()
	for _, w := range rs.served[cfg.KeyRatchet] {
		if first <= w[1] && w[0] <= last {
			return fmt.Errorf("%w: ratchet %d, epoch %d reads bytes [%d, %d], which overlap [%d, %d] — "+
				"advance MaskEpoch or KeyRatchet", ErrWindowServed, cfg.KeyRatchet, cfg.MaskEpoch, first, last, w[0], w[1])
		}
	}
	if rs.served == nil {
		rs.served = make(map[uint64][][2]uint64)
	}
	rs.served[cfg.KeyRatchet] = append(rs.served[cfg.KeyRatchet], [2]uint64{first, last})
	return nil
}

// NewRoundSessions creates one client session per id (key generation
// happens here, once per id instead of once per chunk) plus an empty
// server session.
func NewRoundSessions(ids []uint64, rand io.Reader) (*RoundSessions, error) {
	rs := &RoundSessions{
		Client: make(map[uint64]*Session, len(ids)),
		Server: NewServerSession(),
	}
	// The key pairs are generated on ForEach's workers through one locked
	// reader. No caller could count on which session draws which bytes:
	// crypto/ecdh's GenerateKey already skips a byte of its source at
	// random.
	sessions := make([]*Session, len(ids))
	shared := engine.SharedReader(rand)
	err := engine.ForEach(len(ids), func(i int) (err error) {
		if sessions[i], err = NewSession(shared); err != nil {
			return fmt.Errorf("secagg: session for client %d: %w", ids[i], err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, id := range ids {
		rs.Client[id] = sessions[i]
	}
	return rs, nil
}

// Release hands every client session's buffer back to buffers (Session).
// Nothing a round returns aliases them — the server's sum is its own — so
// the driver that built the sessions releases them once the round is over,
// on every return path; its clients' uploads and received sums are then
// invalid. A nil rs is a no-op.
func (rs *RoundSessions) Release() {
	if rs == nil {
		return
	}
	for _, s := range rs.Client {
		s.release()
	}
}

// resumable reports whether the sessions can skip the advertise stage for
// cfg under the round's drop schedule: the cached roster was sealed for
// exactly cfg.ClientIDs, its members are exactly the clients alive at the
// advertise stage — so a client that was dead when the roster was sealed
// but has since recovered forces a fresh advertise stage instead of being
// silently excluded forever — and every member has a client session that
// still advertises the cached entry's keys. SealAdvertise sorts the roster
// and Validate sorts ClientIDs, so both lists are ascending.
func (rs *RoundSessions) resumable(cfg *Config, drops DropSchedule) bool {
	if rs == nil {
		return false
	}
	roster := rs.Server.RosterFor(cfg.ClientIDs)
	alive := drops.participants(cfg.ClientIDs, StageAdvertiseKeys)
	if roster == nil || len(roster) != len(alive) {
		return false
	}
	for i, m := range roster {
		sess := rs.Client[m.From]
		if m.From != alive[i] || sess == nil {
			return false
		}
		cipherKey, maskKey := sess.keyPairs()
		if !bytes.Equal(cipherKey.PublicBytes(), m.CipherPub) || !bytes.Equal(maskKey.PublicBytes(), m.MaskPub) {
			return false
		}
	}
	return true
}
