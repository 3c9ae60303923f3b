package lightsecagg

import (
	"bytes"
	"fmt"
	"io"
	"sync"

	"repro/internal/aead"
	"repro/internal/dh"
	"repro/internal/field"
	"repro/internal/session"
)

// Session amortization for LightSecAgg, mirroring secagg.Session. The
// fixed per-round costs this layer removes from repeated rounds (and from
// the m chunks of one pipelined core.RunRound):
//
//   - X25519 channel agreements: sealing/opening coded-share envelopes
//     needs one pairwise secret per peer; historically every round (and
//     every chunk) re-generated the key pair and re-agreed n−1 times per
//     client. The session caches one key pair and the per-peer secrets.
//   - The Lagrange encoding matrix: EncodeShares evaluates U basis
//     weights at each of the n−T points that are not noise pieces —
//     O(U² + (n−T)·U) field ops per client per round, identical across
//     rounds with the same geometry. Cached once per session.
//   - The advertise round trip: a cached roster lets resumed rounds skip
//     stage 0 entirely (both drivers support the skip).
//
// Threat model: unlike SecAgg, LightSecAgg's server never reconstructs any
// client key material — dropout handling interpolates the *aggregate*
// mask, and the per-round masks are fresh uniform one-time pads drawn
// outside the session. Reusing the channel key generation across rounds
// therefore leaks nothing new to the honest-but-curious server; the only
// cost of long-lived channel keys is the generic absence of forward
// secrecy for share confidentiality against endpoint-state compromise
// (see ARCHITECTURE.md for the comparison with the secagg ratchet rules).
//
// The session also keeps its client's slabs (NewSessionClient) across the
// sub-rounds and rounds that share it — round scratch, never part of the
// at-rest record (MarshalBinary).
type Session struct {
	// The shared continuity state: cached roster and the ratchet mark. On
	// this substrate the mark counts the rounds the key generation has
	// served and derives nothing (every mask is a fresh one-time pad;
	// cross-round replay of sealed envelopes is prevented by the (Round,
	// from, to) AEAD associated data instead) — it exists so the
	// handshake's KeyRounds lifetime budget expires LightSecAgg key
	// generations exactly as it does secagg's.
	session.ClientState

	mu  sync.Mutex
	key *dh.KeyPair     // X25519 channel key advertised in stage 0
	enc *encodingMatrix // cached Lagrange encoding matrix

	channel session.Secrets // peer channel pub → agreed secret (always step 0)

	scratch slabs // the client's slabs, at the last sub-round's geometry
}

// slabs is a client's round scratch (ARCHITECTURE.md, "Round scratch"):
// the random slab's U·L words, the n × L received slab with its have set,
// the ciphertext slab and the L-length aggregate share.
type slabs struct {
	words    []uint64
	received []field.Element
	have     []bool
	sealed   []byte
	agg      []field.Element
}

// slabs re-slices the session's slabs to cfg's geometry, growing only those
// it outgrows, and clears have: a sub-round's envelopes, masked upload and
// aggregate share live there until the session's next sub-round.
func (s *Session) slabs(cfg Config) slabs {
	n, l := len(cfg.ClientIDs), cfg.SubVectorLen()
	s.mu.Lock()
	defer s.mu.Unlock()
	sc := &s.scratch
	sc.words = resize(sc.words, cfg.RecoveryThreshold()*l)
	sc.received = resize(sc.received, n*l)
	sc.have = resize(sc.have, n)
	clear(sc.have)
	sc.sealed = resize(sc.sealed, (n-1)*(4+8*l+aead.Overhead))
	sc.agg = resize(sc.agg, l)
	return *sc
}

// resize returns xs re-sliced to n, or a new slice if its capacity is short.
func resize[T any](xs []T, n int) []T {
	if cap(xs) < n {
		return make([]T, n)
	}
	return xs[:n]
}

// NewSession generates the session's channel key pair with randomness
// from rand.
func NewSession(rand io.Reader) (*Session, error) {
	s := &Session{}
	if err := s.Rekey(rand); err != nil {
		return nil, err
	}
	return s, nil
}

// PublicBytes returns the session's advertised channel public key.
func (s *Session) PublicBytes() []byte { return s.keyPair().PublicBytes() }

// keyPair returns the current channel key pair under the lock (Rekey swaps
// it, so concurrent readers must not touch the field directly).
func (s *Session) keyPair() *dh.KeyPair {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.key
}

// channelKey returns the AEAD key shared with the peer identified by its
// channel public key, agreeing on first use and caching the result. Safe
// for concurrent use — the in-process driver runs clients as goroutines
// over shared sessions.
func (s *Session) channelKey(peerPub []byte) (*aead.Key, error) {
	key := s.keyPair()
	return s.channel.KeyAt(string(peerPub), 0,
		func() ([dh.SharedSize]byte, error) { return key.Agree(peerPub) })
}

// Taint and Tainted shadow the shared state's and are deliberately inert
// (so the promoted ClearTaint clears a mark nothing reads): LightSecAgg's
// server never reconstructs client key material (dropout recovery
// interpolates the aggregate mask, and every mask is a fresh one-time
// pad), so a client that vanishes mid-round can still safely resume its
// channel keys.
func (s *Session) Taint()        {}
func (s *Session) Tainted() bool { return false }

// Rekey replaces the session's channel key pair and drops the cached
// secrets, the roster, and the rounds-served counter. The geometry-only
// caches (the Lagrange encoding matrix) survive: they are
// key-independent.
func (s *Session) Rekey(rand io.Reader) error {
	key, err := dh.Generate(rand)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.key = key
	s.mu.Unlock()
	s.channel.Clear()
	s.Reset()
	return nil
}

// RekeyEdges drops the cached channel secrets and roster entries for the
// given divergent peers while keeping this session's own key pair and
// every other edge — the LightSecAgg face of the handshake's partial
// resume. The divergent members re-advertise fresh channel keys in the
// coming round (delivered with the merged roster broadcast) and the
// dropped edges re-agree on first use.
func (s *Session) RekeyEdges(ids []uint64) {
	for _, m := range s.DropMembers(ids) {
		s.channel.Delete(string(m.CipherPub))
	}
}

// encodingMatrix holds the Lagrange basis weights w[rank−T][k] for
// evaluating the share polynomial at client point α_rank, rank ≥ T, from
// its U fixing values: the mask pieces at β_1..β_{U−T}, then the noise
// pieces at α_0..α_{T−1} (the client slab's piece order). Ranks below T
// have no row — their share is a noise piece. It depends only on the
// geometry (n, U, T), not on the client or the round.
type encodingMatrix struct {
	n, u, t int
	w       [][]field.Element
}

func newEncodingMatrix(cfg Config) (*encodingMatrix, error) {
	n, u, t := len(cfg.ClientIDs), cfg.RecoveryThreshold(), cfg.PrivacyT
	xs := make([]field.Element, u)
	for k := range u - t {
		xs[k] = cfg.beta(k + 1)
	}
	for r := range t {
		xs[u-t+r] = cfg.alpha(r)
	}
	basis, err := newLagrangeBasis(xs)
	if err != nil {
		return nil, err
	}
	m := &encodingMatrix{n: n, u: u, t: t, w: make([][]field.Element, n-t)}
	for i := range m.w {
		m.w[i] = basis.weightsAt(cfg.alpha(t + i))
	}
	return m, nil
}

// matrix returns the encoding matrix for cfg's geometry, computing it on
// first use and caching it for the session's lifetime.
func (s *Session) matrix(cfg Config) (*encodingMatrix, error) {
	n, u, t := len(cfg.ClientIDs), cfg.RecoveryThreshold(), cfg.PrivacyT
	s.mu.Lock()
	enc := s.enc
	s.mu.Unlock()
	if enc != nil && enc.n == n && enc.u == u && enc.t == t {
		return enc, nil
	}
	enc, err := newEncodingMatrix(cfg)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.enc = enc
	s.mu.Unlock()
	return enc, nil
}

// ServerSession is the aggregator's cross-round state: the shared
// continuity state (session.ServerState — the sealed roster for the
// advertise skip and the rounds-served mark; the server never reconstructs
// client key material, so its taint set stays empty) and nothing else.
// There is no per-edge key material on this substrate, so Rekey and
// RekeyEdges are the shared state's Reset and DropMembers.
type ServerSession struct {
	session.ServerState
}

// NewServerSession returns an empty server session.
func NewServerSession() *ServerSession { return &ServerSession{} }

// Rekey drops the cached roster and the rounds-served counter so the
// next round collects a fresh advertise stage.
func (s *ServerSession) Rekey() { s.Reset() }

// RekeyEdges drops the roster entries of the given divergent members so
// their fresh advertisements replace them in the merged roster of a
// partial resume.
func (s *ServerSession) RekeyEdges(ids []uint64) { s.DropMembers(ids) }

// RoundSessions bundles the per-participant sessions a driver shares
// across the chunked sub-rounds of one logical round (core.RunRound builds
// one per round; a driver may keep one across rounds). Unlike
// secagg.RoundSessions there is no derivation-point bookkeeping: every
// sub-round draws fresh uniform masks, so session reuse cannot repeat a
// mask stream.
type RoundSessions struct {
	Client map[uint64]*Session
	Server *ServerSession
}

// NewRoundSessions creates one client session per id (channel key
// generation happens here, once per id instead of once per chunk) plus an
// empty server session.
func NewRoundSessions(ids []uint64, rand io.Reader) (*RoundSessions, error) {
	rs := &RoundSessions{
		Client: make(map[uint64]*Session, len(ids)),
		Server: NewServerSession(),
	}
	for _, id := range ids {
		s, err := NewSession(rand)
		if err != nil {
			return nil, fmt.Errorf("lightsecagg: session for client %d: %w", id, err)
		}
		rs.Client[id] = s
	}
	return rs, nil
}

// resumable reports whether the sessions can skip the advertise stage for
// cfg (session.ServerState.Resumable over every sampled client: the
// offline phase needs them all, so there is no partial-roster resume;
// rosterBroadcast follows ClientIDs order, so both are ascending).
func (rs *RoundSessions) resumable(cfg Config) bool {
	if rs == nil {
		return false
	}
	return rs.Server.Resumable(cfg.ClientIDs, cfg.ClientIDs, func(m AdvertiseMsg) bool {
		sess := rs.Client[m.From]
		return sess != nil && bytes.Equal(sess.PublicBytes(), m.CipherPub)
	})
}
