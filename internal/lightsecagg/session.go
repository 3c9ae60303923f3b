package lightsecagg

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"sync"

	"repro/internal/aead"
	"repro/internal/dh"
	"repro/internal/field"
	"repro/internal/session"
	"repro/internal/transport"
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
//   - The advertise round trip: a cached roster lets the later sub-rounds
//     skip stage 0 entirely.
//
// Threat model: unlike SecAgg, LightSecAgg's server never reconstructs any
// client key material — dropout handling interpolates the *aggregate*
// mask, and the per-round masks are fresh uniform one-time pads drawn
// outside the session. Reusing the channel key across sub-rounds therefore
// leaks nothing new to the honest-but-curious server; replay of a sealed
// envelope into another sub-round is refused by the (Round, from, to)
// AEAD associated data (see ARCHITECTURE.md for the comparison with the
// secagg ratchet rules).
//
// The session also keeps its client's slabs (NewSessionClient) across the
// sub-rounds that share it — round scratch, never session state — until
// RoundSessions.Release hands them back.
type Session struct {
	// The shared continuity state: the cached roster. Its ratchet mark and
	// taint are unused on this substrate: every mask is a fresh one-time
	// pad, so a sub-round derives nothing from the session's position, and
	// nothing reads the taint because no handshake resumes this substrate.
	session.ClientState

	key *dh.KeyPair // X25519 channel key advertised in stage 0, fixed for the session's life

	mu  sync.Mutex
	enc *encodingMatrix // cached Lagrange encoding matrix

	channel session.Secrets // peer channel pub → agreed secret (always step 0)

	scratch slabs // the client's slabs, at the last sub-round's geometry
}

// slabs is a client's round scratch (ARCHITECTURE.md, "Round scratch"):
// the random slab's U·L words, the n × L received slab with its have set,
// the ciphertext slab, the L-length aggregate share and the peers'
// channel keys by rank. All but have and pubs are leased, one lease each,
// from elems and ciphertexts.
type slabs struct {
	words    []field.Element
	received []field.Element
	have     []bool
	sealed   []byte
	agg      []field.Element
	pubs     [][]byte
}

// The free lists a session leases its slabs from, each bounded by two
// lsa_dropout cohorts (32 clients; U = 24, L = 256): a client's random,
// received and aggregate slabs are (24 + 32 + 1)·256 words, and its 31
// envelopes of 2068 bytes fill a 64 KiB class. A session nobody releases
// (a session-less client's) keeps what it leased.
var (
	elems       = transport.NewFreeList[field.Element](2*32*(24+32+1)*256, 2*32*(24+32+1)*256)
	ciphertexts = transport.NewFreeList[byte](2*32<<16, 2*32<<16)
)

// slabs re-slices the session's slabs to cfg's geometry, growing only those
// it outgrows, and clears have: a sub-round's envelopes, masked upload and
// aggregate share live there until the session's next sub-round or its
// release.
func (s *Session) slabs(cfg Config) slabs {
	n, l := len(cfg.ClientIDs), cfg.SubVectorLen()
	s.mu.Lock()
	defer s.mu.Unlock()
	sc := &s.scratch
	sc.words = regrow(elems, sc.words, cfg.RecoveryThreshold()*l)
	sc.received = regrow(elems, sc.received, n*l)
	sc.have = slices.Grow(sc.have[:0], n)[:n]
	clear(sc.have)
	sc.pubs = slices.Grow(sc.pubs[:0], n)[:n]
	clear(sc.pubs)
	sc.sealed = regrow(ciphertexts, sc.sealed, (n-1)*(4+8*l+aead.Overhead))
	sc.agg = regrow(elems, sc.agg, l)
	return *sc
}

// regrow returns xs re-sliced to n or, if its capacity is short, hands it
// back to list and leases an n-long slice in its place.
func regrow[T any](list *transport.FreeList[T], xs []T, n int) []T {
	if cap(xs) >= n {
		return xs[:n]
	}
	list.Release(xs)
	return list.Lease(n)
}

// release hands the session's slabs back to their lists; a later sub-round
// on the session leases anew.
func (s *Session) release() {
	s.mu.Lock()
	defer s.mu.Unlock()
	sc := &s.scratch
	elems.Release(sc.words)
	elems.Release(sc.received)
	elems.Release(sc.agg)
	ciphertexts.Release(sc.sealed)
	clear(sc.pubs)
	*sc = slabs{have: sc.have, pubs: sc.pubs}
}

// NewSession generates the session's channel key pair with randomness
// from rand.
func NewSession(rand io.Reader) (*Session, error) {
	key, err := dh.Generate(rand)
	if err != nil {
		return nil, err
	}
	return &Session{key: key}, nil
}

// PublicBytes returns the session's advertised channel public key.
func (s *Session) PublicBytes() []byte { return s.key.PublicBytes() }

// channelKey returns the AEAD key shared with the peer identified by its
// channel public key, agreeing on first use and caching the result. Safe
// for concurrent use — the in-process driver runs clients as goroutines
// over shared sessions.
func (s *Session) channelKey(peerPub []byte) (*aead.Key, error) {
	return s.channel.KeyAt(string(peerPub), 0,
		func() ([dh.SharedSize]byte, error) { return s.key.Agree(peerPub) })
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
	basis, err := field.NewLagrangeBasis(xs)
	if err != nil {
		return nil, fmt.Errorf("lightsecagg: %w", err)
	}
	m := &encodingMatrix{n: n, u: u, t: t, w: make([][]field.Element, n-t)}
	for i := range m.w {
		m.w[i] = basis.WeightsAt(cfg.alpha(t + i))
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

// ServerSession is the aggregator's state across the sub-rounds of one
// round: the shared continuity state (session.ServerState — the sealed
// roster for the advertise skip; the server never reconstructs client key
// material, so its taint set stays empty) and nothing else.
type ServerSession struct {
	session.ServerState
}

// NewServerSession returns an empty server session.
func NewServerSession() *ServerSession { return &ServerSession{} }

// RoundSessions bundles the per-participant sessions a driver shares
// across the chunked sub-rounds of one logical round (core.RunRound builds
// one per round). Unlike
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

// Release hands every client session's slabs back to the package's free
// lists (Session). Nothing a round returns aliases them — the server's sum
// is its own — so the driver that built the sessions releases them once
// the round is over, on every return path; the envelopes, masked uploads
// and aggregate shares of its clients are then invalid. A nil rs is a
// no-op.
func (rs *RoundSessions) Release() {
	if rs == nil {
		return
	}
	for _, s := range rs.Client {
		s.release()
	}
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
