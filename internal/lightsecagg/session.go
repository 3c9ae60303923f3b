package lightsecagg

import (
	"bytes"
	"encoding/binary"
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
//     every chunk) re-generated the key pair and re-agreed n times per
//     client. The session caches one key pair and the per-peer secrets.
//   - The Lagrange encoding matrix: EncodeShares evaluates U basis
//     weights at each of n points — O(n·U²) field ops per client per
//     round, identical across rounds with the same geometry. Cached once
//     per session.
//   - The recovery interpolation weights: the server's one-shot recovery
//     computes (U−T)·U weights per responder cohort; chunked rounds see
//     the same cohort every chunk. Cached keyed by cohort.
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

// Taint, ClearTaint and Tainted shadow the shared state's and are
// deliberately inert: LightSecAgg's server never reconstructs client key
// material (dropout recovery interpolates the aggregate mask, and every
// mask is a fresh one-time pad), so a client that vanishes mid-round can
// still safely resume its channel keys.
func (s *Session) Taint()        {}
func (s *Session) ClearTaint()   {}
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

// encodingMatrix holds the Lagrange basis weights w[rank][k] for
// evaluating the share polynomial at every client point α_rank. It
// depends only on the geometry (n, U), not on the client or the round.
type encodingMatrix struct {
	n, u int
	w    [][]field.Element
}

func newEncodingMatrix(cfg Config) (*encodingMatrix, error) {
	n := len(cfg.ClientIDs)
	u := cfg.RecoveryThreshold()
	m := &encodingMatrix{n: n, u: u, w: make([][]field.Element, n)}
	for rank := 0; rank < n; rank++ {
		ws, err := cfg.lagrangeWeights(cfg.alpha(rank))
		if err != nil {
			return nil, err
		}
		m.w[rank] = ws
	}
	return m, nil
}

// matrix returns the encoding matrix for cfg's geometry, computing it on
// first use and caching it for the session's lifetime.
func (s *Session) matrix(cfg Config) (*encodingMatrix, error) {
	n := len(cfg.ClientIDs)
	u := cfg.RecoveryThreshold()
	s.mu.Lock()
	enc := s.enc
	s.mu.Unlock()
	if enc != nil && enc.n == n && enc.u == u {
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
// client key material, so its taint set stays empty) plus the recovery
// interpolation weights keyed by responder cohort — chunked rounds see the
// same cohort every chunk, so the O(U²·(U−T)) weight computation runs once
// per cohort instead of once per chunk. There is no per-edge key material
// on this substrate and the weights are key-independent, so Rekey and
// RekeyEdges are the shared state's Reset and DropMembers. Safe for
// concurrent use.
type ServerSession struct {
	session.ServerState

	mu       sync.Mutex
	recovery map[string]recoveryEntry // cohort key → ranks + weights
}

// recoveryEntry is one cached cohort's interpolation weights together
// with the sorted responder ranks they were computed for — the ranks let
// a later cohort that differs by a single straggler derive its weights
// incrementally instead of recomputing from scratch.
type recoveryEntry struct {
	ranks []int
	ws    [][]field.Element // [parts][u]
}

// NewServerSession returns an empty server session.
func NewServerSession() *ServerSession {
	return &ServerSession{recovery: make(map[string]recoveryEntry)}
}

// Rekey drops the cached roster and the rounds-served counter so the
// next round collects a fresh advertise stage. The recovery-weight cache
// survives: it depends only on the geometry and responder ranks, not on
// any key material.
func (s *ServerSession) Rekey() { s.Reset() }

// RekeyEdges drops the roster entries of the given divergent members so
// their fresh advertisements replace them in the merged roster of a
// partial resume.
func (s *ServerSession) RekeyEdges(ids []uint64) { s.DropMembers(ids) }

// cohortKey identifies a recovery cohort by what the weights actually
// depend on: the geometry (U, T) and the responders' *ranks* within the
// client set (α_rank abscissas), in the order the weight columns follow.
// Keying by rank rather than id keeps a session reused across rounds
// with different rosters from serving stale weights — the same ids at
// shifted ranks produce a different key — while rosters that merely
// relabel clients at the same positions legitimately share entries.
func cohortKey(cfg Config, ranks []int) string {
	b := make([]byte, 0, 16+8*len(ranks))
	b = binary.LittleEndian.AppendUint64(b, uint64(cfg.RecoveryThreshold()))
	b = binary.LittleEndian.AppendUint64(b, uint64(cfg.PrivacyT))
	for _, r := range ranks {
		b = binary.LittleEndian.AppendUint64(b, uint64(r))
	}
	return string(b)
}

// recoveryWeights returns ws[k][i] = the Lagrange weight of responder i
// for interpolating the aggregate polynomial at data point β_{k+1}, for
// the given ordered responder cohort. With a session the cohort's weights
// are computed once and reused across the chunks that see it again;
// callers pass responders in canonical (sorted) order so arrival-order
// jitter between chunks still hits the cache and the map stays bounded
// by the number of distinct cohorts. A nil receiver computes cold and
// caches nothing — the reference the cache tests compare against.
func (s *ServerSession) recoveryWeights(cfg Config, responders []uint64) ([][]field.Element, error) {
	u := cfg.RecoveryThreshold()
	ranks := make([]int, len(responders))
	for i, id := range responders {
		rank, err := cfg.rank(id)
		if err != nil {
			return nil, err
		}
		ranks[i] = rank
	}
	var key string
	parts := u - cfg.PrivacyT
	if s != nil {
		key = cohortKey(cfg, ranks)
		s.mu.Lock()
		if e, ok := s.recovery[key]; ok {
			s.mu.Unlock()
			return e.ws, nil
		}
		// Miss: look for a cached cohort of the same geometry differing
		// by exactly one straggler — stragglers churn one at a time far
		// more often than cohorts reshuffle wholesale, and the one-swap
		// update is O(parts·u) multiplications with a single batched
		// inversion instead of the O(parts·u²) cold computation.
		var neighbor recoveryEntry
		for _, e := range s.recovery {
			if len(e.ranks) == len(ranks) && len(e.ws) == parts && oneSwapApart(e.ranks, ranks) {
				neighbor = e
				break
			}
		}
		s.mu.Unlock()
		if neighbor.ranks != nil {
			ws, err := swapRecoveryWeights(cfg, neighbor, ranks)
			if err == nil {
				s.mu.Lock()
				s.recovery[key] = recoveryEntry{ranks: ranks, ws: ws}
				s.mu.Unlock()
				return ws, nil
			}
			// Fall through to the cold path on any error (cannot happen
			// with valid geometries, but the full recompute is always safe).
		}
	}
	xs := make([]field.Element, u)
	for i, rank := range ranks {
		xs[i] = cfg.alpha(rank)
	}
	ws := make([][]field.Element, parts)
	for k := 0; k < parts; k++ {
		row, err := lagrangeWeightsAt(xs, cfg.beta(k+1))
		if err != nil {
			return nil, err
		}
		ws[k] = row
	}
	if s != nil {
		s.mu.Lock()
		s.recovery[key] = recoveryEntry{ranks: ranks, ws: ws}
		s.mu.Unlock()
	}
	return ws, nil
}

// oneSwapApart reports whether two equal-length sorted rank cohorts
// differ in exactly one member (one straggler swapped for another).
func oneSwapApart(a, b []int) bool {
	i, j, diff := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			i, j = i+1, j+1
		case a[i] < b[j]:
			i++
			diff++
		default:
			j++
			diff++
		}
		if diff > 2 {
			return false
		}
	}
	diff += len(a) - i + len(b) - j
	return diff == 2
}

// swapRecoveryWeights derives the interpolation weights of a cohort that
// differs from the cached one by a single straggler: abscissa α_b (cached
// only) swapped for α_c (new only). For every shared abscissa α_a the
// Lagrange weight at evaluation point x updates by two linear factors,
//
//	w'(a) = w(a) · (x−α_c)(α_a−α_b) / ((x−α_b)(α_a−α_c)),
//
// and only the new member's own weight needs the full product
// Π_{m≠c}(x−α_m) / Π_{m≠c}(α_c−α_m). The (α_a−α_c) inverses are shared
// by every evaluation row, so one field.BatchInv covers all u−1 of them
// plus the per-row (x_k−α_b) and the single denominator of α_c.
func swapRecoveryWeights(cfg Config, old recoveryEntry, newRanks []int) ([][]field.Element, error) {
	// Locate the swapped pair and map each new position to its old one.
	oldPos := make([]int, len(newRanks)) // new position → old position (−1 for c)
	b, c, cPos := -1, -1, -1
	i, j := 0, 0
	for j < len(newRanks) {
		switch {
		case i < len(old.ranks) && old.ranks[i] == newRanks[j]:
			oldPos[j] = i
			i, j = i+1, j+1
		case i < len(old.ranks) && old.ranks[i] < newRanks[j]:
			b = old.ranks[i]
			i++
		default:
			c, cPos = newRanks[j], j
			oldPos[j] = -1
			j++
		}
	}
	if i < len(old.ranks) {
		b = old.ranks[i]
	}
	if b < 0 || c < 0 {
		return nil, fmt.Errorf("lightsecagg: cohorts are not one swap apart")
	}
	alphaB, alphaC := cfg.alpha(b), cfg.alpha(c)
	parts := len(old.ws)

	// One batch inversion for everything: u−1 shared (α_a−α_c), the
	// per-row (x_k−α_b), and α_c's own denominator Π_{m≠c}(α_c−α_m).
	dens := make([]field.Element, 0, len(newRanks)+parts+1)
	denC := field.New(1)
	for p, r := range newRanks {
		if p == cPos {
			continue
		}
		alphaA := cfg.alpha(r)
		dens = append(dens, field.Sub(alphaA, alphaC))
		denC = field.Mul(denC, field.Sub(alphaC, alphaA))
	}
	for k := 0; k < parts; k++ {
		dens = append(dens, field.Sub(cfg.beta(k+1), alphaB))
	}
	dens = append(dens, denC)
	inv, err := field.BatchInv(dens)
	if err != nil {
		return nil, fmt.Errorf("lightsecagg: degenerate straggler swap: %w", err)
	}
	invXB := inv[len(newRanks)-1 : len(inv)-1] // per evaluation row k
	invDenC := inv[len(inv)-1]
	// Row-independent shared-abscissa factors (α_a−α_b)/(α_a−α_c),
	// aligned with the shared new positions in order.
	scaleA := inv[:len(newRanks)-1]
	shared := 0
	for p, r := range newRanks {
		if p == cPos {
			continue
		}
		scaleA[shared] = field.Mul(field.Sub(cfg.alpha(r), alphaB), scaleA[shared])
		shared++
	}

	ws := make([][]field.Element, parts)
	for k := 0; k < parts; k++ {
		x := cfg.beta(k + 1)
		rowFactor := field.Mul(field.Sub(x, alphaC), invXB[k])
		row := make([]field.Element, len(newRanks))
		numC := field.New(1)
		shared = 0
		for p, r := range newRanks {
			if p == cPos {
				continue
			}
			numC = field.Mul(numC, field.Sub(x, cfg.alpha(r)))
			row[p] = field.Mul(old.ws[k][oldPos[p]], field.Mul(rowFactor, scaleA[shared]))
			shared++
		}
		row[cPos] = field.Mul(numC, invDenC)
		ws[k] = row
	}
	return ws, nil
}

// RoundSessions bundles the per-participant sessions a driver shares
// across the chunked sub-rounds of one logical round and across
// consecutive rounds. Unlike secagg.RoundSessions there is no derivation-
// point bookkeeping: every sub-round draws fresh uniform masks, so
// session reuse cannot repeat a mask stream.
type RoundSessions struct {
	Client map[uint64]*Session
	Server *ServerSession
}

// ServerState returns the server session's continuity state, the part of
// the bundle core.SessionPool's reuse policy reads.
func (rs *RoundSessions) ServerState() *session.ServerState { return &rs.Server.ServerState }

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
