// Package lightsecagg implements LightSecAgg (So et al., MLSys 2022) — the
// strongest of the reduced-round secure-aggregation baselines the paper
// surveys in §2.3.2 (refs [41, 74, 75]). Unlike SecAgg/SecAgg+, which pay
// one secret-sharing reconstruction per dropped client, LightSecAgg
// reconstructs the *aggregate* of the surviving clients' masks in one shot
// via Lagrange-coded mask sharing.
//
// The paper's point about this family — "only handle a semi-honest
// adversary … with their communication cost still being high in FL
// practice" — is reproduced by this package: it offers no malicious-mode
// signatures or consistency checks (semi-honest only), and its per-client
// offline share traffic is n·d/(U−T) field elements, which the ablation
// experiment compares against SecAgg's seed-sized shares.
//
// Protocol sketch (parameters: n clients, privacy threshold T, dropout
// tolerance D, recovery threshold U = n − D > T):
//
//  1. Offline sharing. Client i draws a uniform mask z_i ∈ F^d, splits it
//     into U−T sub-vectors of length L = ⌈d/(U−T)⌉ and draws T uniform
//     noise sub-vectors. Its polynomial vector f_i of degree < U is fixed
//     by those U pieces: f_i(β_k) = mask piece k (k = 1..U−T) and
//     f_i(α_t) = noise piece t (t = 0..T−1). It sends f_i(α_j) to each
//     other client j: for ranks j < T that is noise piece j itself, for the
//     rest one Lagrange evaluation. Its own share it keeps.
//  2. Masked upload. Client i uploads y_i = x_i + z_i[:d].
//  3. One-shot recovery. The server announces the surviving set U₁
//     (|U₁| ≥ U). Each live client j returns s_j = Σ_{i∈U₁} f_i(α_j). From
//     any U responses the server interpolates Σ_{i∈U₁} f_i at β_1..β_{U−T},
//     i.e. Σ z_i, and computes Σ x_i = Σ y_i − Σ z_i.
//
// Privacy: each f_i carries T uniform values at α_0..α_{T−1}, so any T
// colluding clients' shares are jointly uniform and independent of z_i. A
// polynomial of degree < U vanishing at the U−T data points and at T share
// points is zero, so for a fixed mask the map from the T noise values to
// any T shares is a bijection — the standard Lagrange-coding argument,
// whether or not the colluders' ranks are below T (their shares are then
// noise pieces unchanged). The pieces are the AES-CTR expansion of a
// 32-byte seed, so this holds computationally, as the envelopes' secrecy
// does. The server sees only masked inputs and aggregate shares. A client answers a recovery request only for a strictly
// ascending list of at least U known survivors (AggregateShare) — a shorter
// one would isolate single masks. The residual stays: a server may still
// name different ≥ U sets to different clients and difference the answers,
// which is one reason the package is semi-honest only.
//
// All arithmetic is over GF(2^61−1) (package field); signed model updates
// embed via Lift/Center.
//
// # Runtime architecture
//
// The substrate is the paper's baseline, so it runs in process only: the
// comparison (core.RunRound's ProtocolLightSecAgg, ClientCost, the
// ablation) needs no deployment, and the re-key handshake refuses the
// protocol. Within that, it is structured like its SecAgg sibling:
//
//   - Client is a per-round state machine (Advertise → SealShares →
//     OpenEnvelopes → MaskedInput → AggregateShare). RunWithSessions
//     (run.go) drives a round as one loop over the four stages, each
//     stage's live clients on at most GOMAXPROCS workers. Coded shares
//     travel inside pairwise AEAD envelopes as they would between
//     machines, so an opened share is decoded like a peer's frame
//     (codec.go).
//   - Server exposes incremental per-message Add*/Seal* collection
//     surfaces (AddAdvertise, AddShareBundle, AddMasked, AddAggShare, and
//     the matching Seal* closers) mirroring secagg.Server. Masked inputs
//     fold into a running partial aggregate on arrival, so sealing the
//     masked stage is an O(1) threshold check plus sort — not n decodes
//     plus n length-d vector adds — and the server never retains the
//     n·d masked matrix, only the d-length running sum.
//   - The loop makes the server's Add* calls on its own goroutine, in id
//     order, once a stage's client steps are done. The one-shot recovery
//     asks only the first U live survivors: any U responses complete it.
//   - Session/ServerSession (session.go) amortize the fixed round costs —
//     X25519 channel agreements, the Lagrange encoding matrix and the
//     advertise round trip — across the chunks of one pipelined round
//     (core.RunRound builds one RoundSessions per round).
package lightsecagg

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/aead"
	"repro/internal/field"
	"repro/internal/prg"
	"repro/internal/session"
	"repro/internal/transport"
)

// Config fixes one LightSecAgg round. All parties must agree on it.
type Config struct {
	ClientIDs []uint64 // sampled set, sorted ascending
	PrivacyT  int      // T: colluding clients tolerated
	Dropout   int      // D: dropouts tolerated
	Dim       int      // input vector length d
	// Round domain-separates the AEAD envelopes of this (sub-)round.
	// Sessions make channel keys long-lived, so without it a malicious
	// relay could replay a stale envelope from an earlier chunk or round
	// under the same key and AD, silently corrupting the recipient's
	// share table. Drivers running several sub-rounds on one session set
	// (core.RunRound's chunks) must give each a distinct Round.
	Round uint64
}

// Validate checks the LightSecAgg feasibility constraints: n − D > T ≥ 1
// would be ideal, but T = 0 (no collusion privacy, masks still hide
// individual updates from the server) is also permitted.
func (c Config) Validate() error {
	n := len(c.ClientIDs)
	switch {
	case n < 2:
		return fmt.Errorf("lightsecagg: need at least 2 clients, got %d", n)
	case c.Dim <= 0:
		return fmt.Errorf("lightsecagg: Dim must be positive, got %d", c.Dim)
	case c.PrivacyT < 0:
		return fmt.Errorf("lightsecagg: PrivacyT %d < 0", c.PrivacyT)
	case c.Dropout < 0:
		return fmt.Errorf("lightsecagg: Dropout %d < 0", c.Dropout)
	case n-c.Dropout <= c.PrivacyT:
		return fmt.Errorf("lightsecagg: recovery threshold U = n−D = %d must exceed T = %d",
			n-c.Dropout, c.PrivacyT)
	}
	for i := 1; i < n; i++ {
		if c.ClientIDs[i] <= c.ClientIDs[i-1] {
			return fmt.Errorf("lightsecagg: ClientIDs must be strictly ascending")
		}
	}
	return nil
}

// RecoveryThreshold returns U = n − D, the number of aggregate shares the
// server needs for one-shot mask recovery.
func (c Config) RecoveryThreshold() int { return len(c.ClientIDs) - c.Dropout }

// SubVectorLen returns L = ⌈d/(U−T)⌉, the length of each coded piece.
func (c Config) SubVectorLen() int {
	parts := c.RecoveryThreshold() - c.PrivacyT
	return (c.Dim + parts - 1) / parts
}

// Evaluation points: mask pieces live at β_k = k (k = 1..U−T), client
// shares at α_j = U + 1 + rank(j), the T noise pieces at α_0..α_{T−1}. All
// distinct by construction.
func (c Config) beta(k int) field.Element { return field.New(uint64(k)) }

func (c Config) alpha(rank int) field.Element {
	return field.New(uint64(c.RecoveryThreshold() + 1 + rank))
}

func (c Config) rank(id uint64) (int, error) {
	i := sort.Search(len(c.ClientIDs), func(i int) bool { return c.ClientIDs[i] >= id })
	if i == len(c.ClientIDs) || c.ClientIDs[i] != id {
		return 0, fmt.Errorf("lightsecagg: unknown client id %d", id)
	}
	return i, nil
}

// recoveryWeights returns ws[k][i] = the Lagrange weight of responder i
// for interpolating the aggregate polynomial at data point β_{k+1}, for
// the given responder cohort.
func recoveryWeights(cfg Config, responders []uint64) ([][]field.Element, error) {
	xs := make([]field.Element, len(responders))
	for i, id := range responders {
		rank, err := cfg.rank(id)
		if err != nil {
			return nil, err
		}
		xs[i] = cfg.alpha(rank)
	}
	basis, err := field.NewLagrangeBasis(xs)
	if err != nil {
		return nil, fmt.Errorf("lightsecagg: %w", err)
	}
	ws := make([][]field.Element, cfg.RecoveryThreshold()-cfg.PrivacyT)
	for k := range ws {
		ws[k] = basis.WeightsAt(cfg.beta(k + 1))
	}
	return ws, nil
}

// Protocol messages, carried typed by the in-process loop.

// AdvertiseMsg is the stage-0 channel-key advertisement: the roster entry
// the session layer caches, hashes and persists, with the X25519 channel
// public key as its CipherPub (MaskPub and Signature stay empty).
type AdvertiseMsg = session.Entry

// Envelope is one AEAD-sealed coded share in transit. On the uplink, From
// is the sealing client and To the addressee; the server re-stamps From
// with the transport-verified origin before relaying, so a malicious peer
// cannot spoof the sender (the AEAD associated data binds the route too).
type Envelope struct {
	From, To   uint64
	Ciphertext []byte
}

// MaskedMsg is the stage-2 masked upload y_i = x_i + z_i.
type MaskedMsg struct {
	From uint64
	Y    []field.Element
}

// AggShareMsg is the one-shot recovery response s_j = Σ_{i∈U₁} f_i(α_j).
type AggShareMsg struct {
	From uint64
	S    []field.Element
}

// Client is one participant's round state machine. Its stage methods are
// driven by run.go's stage loop; see the package comment for the stage
// order.
type Client struct {
	cfg     Config
	id      uint64
	session *Session  // channel key + caches; private ephemeral when the caller passed nil
	rand    io.Reader // AEAD nonce randomness

	// The session's slabs at this sub-round's geometry. received is the
	// n × L slab of f_i(α_self) from every client i, row rank(i):
	// SealShares encodes its outgoing shares there, which leaves its own in
	// place, and OpenEnvelopes overwrites the peer rows; have marks the rows
	// holding a received share, each written once, the only rows summed.
	slabs
	// random is slabs.words, expanded from a seed: the U coded inputs of
	// SubVectorLen each, the mask z_i (U−T sub-vectors, (U−T)·L ≥ d long)
	// then the T noise sub-vectors, f_i(α_0..α_{T−1}). MaskedInput consumes
	// the mask — the upload is built in random[:Dim] — and sets masked.
	random []field.Element
	masked bool

	// roster is slabs.pubs, each rank's channel public key, once
	// SealShares installed it (nil before).
	roster [][]byte
}

// NewSessionClient validates the config and builds a client. sess is an
// optional key-agreement session: when non-nil, the client advertises the
// session's long-lived channel key and reuses its cached pairwise secrets
// and encoding matrix instead of paying X25519 agreement and Lagrange
// weight computation per round; when nil, the client gets a fresh
// ephemeral channel key. The mask and coding noise are always drawn fresh
// — they are one-time pads revealed in aggregate: one prg.Seed read from
// rand (after the session's key, when sess is nil) expands in place into
// the whole random slab. The client works in the session's slabs, so its
// envelopes, masked upload and aggregate share are valid until the
// session's next sub-round or its release (RoundSessions.Release).
func NewSessionClient(cfg Config, id uint64, rand io.Reader, sess *Session) (*Client, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return newClient(cfg, id, rand, sess)
}

// newClient is NewSessionClient for a cfg the caller has validated.
func newClient(cfg Config, id uint64, rand io.Reader, sess *Session) (*Client, error) {
	if _, err := cfg.rank(id); err != nil {
		return nil, err
	}
	if sess == nil {
		var err error
		if sess, err = NewSession(rand); err != nil {
			return nil, err
		}
	}
	var seed prg.Seed
	if _, err := io.ReadFull(rand, seed[:]); err != nil {
		return nil, fmt.Errorf("lightsecagg: reading mask seed: %w", err)
	}
	sc := sess.slabs(cfg)
	return &Client{cfg: cfg, id: id, session: sess, rand: rand, slabs: sc, random: fillUniform(seed, sc.words)}, nil
}

// fillUniform expands seed's PRG stream into out in place and returns it:
// element i is field.RandomElement's low-61-bit rule over the stream's
// i-th 8-byte little-endian word. The pad is a one-time mask revealed only
// in aggregate, so a 32-byte seed from the caller's reader stands in for
// U·L·8 bytes of it.
func fillUniform(seed prg.Seed, out []field.Element) []field.Element {
	words := field.Words(out)
	prg.NewStream(seed).FillUint64(words)
	for i, w := range words {
		out[i] = field.New(w & field.Modulus)
	}
	return out
}

// Advertise returns the stage-0 channel-key advertisement.
func (c *Client) Advertise() AdvertiseMsg {
	return AdvertiseMsg{From: c.id, CipherPub: c.session.PublicBytes()}
}

// encTile is the sub-vector tile of the blocked share encoding: all U
// piece tiles (U·encTile·8 bytes) stay cache-resident while every rank's
// weights sweep over them, instead of re-streaming the full U·L piece set
// from memory once per rank.
const encTile = 1024

// EncodeShares returns the coded mask share f_i(α_j) for every client j
// (including self) — the plaintext of the offline-sharing message of step
// 1. The driver seals the peers' shares via SealShares;
// the plaintext form is exported for white-box tests and the cost model.
func (c *Client) EncodeShares() (map[uint64][]field.Element, error) {
	l := c.cfg.SubVectorLen()
	slab := make([]field.Element, len(c.cfg.ClientIDs)*l)
	if err := c.encodeSharesInto(slab); err != nil {
		return nil, err
	}
	out := make(map[uint64][]field.Element, len(c.cfg.ClientIDs))
	for rank, id := range c.cfg.ClientIDs {
		out[id] = slab[rank*l : (rank+1)*l : (rank+1)*l]
	}
	return out, nil
}

// encodeSharesInto writes f_i(α_j) into row rank(j) of the n × L slab.
//
// Ranks below T get their noise piece as it is — f_i(α_rank) is one of
// the values that fix f_i. The other n−T rows are the (n−T)×U Lagrange
// matrix–vector product, blocked over the sub-vector (encTile) for cache
// reuse across ranks, each tile through field.WeightedSumInto's
// deferred-reduction kernel.
func (c *Client) encodeSharesInto(slab []field.Element) error {
	if c.masked {
		return fmt.Errorf("lightsecagg: shares encoded after MaskedInput consumed the mask")
	}
	enc, err := c.session.matrix(c.cfg)
	if err != nil {
		return err
	}
	l, u, t := c.cfg.SubVectorLen(), c.cfg.RecoveryThreshold(), c.cfg.PrivacyT
	copy(slab[:t*l], c.random[(u-t)*l:])
	tile := make([][]field.Element, u)
	for base := 0; base < l; base += encTile {
		hi := min(base+encTile, l)
		for k := range tile {
			tile[k] = c.random[k*l+base : k*l+hi]
		}
		for rank := t; rank < len(c.cfg.ClientIDs); rank++ {
			field.WeightedSumInto(slab[rank*l+base:rank*l+hi], enc.w[rank-t], tile)
		}
	}
	return nil
}

// SealShares encodes the client's n coded shares into its received slab
// (its own row stays), then validates the stage-0 roster — installing it
// only now, so no OpenEnvelopes precedes the encoding — remembers the
// peers' channel keys, and returns one AEAD envelope per other client
// carrying that peer's share: the n−1 envelopes of the step-1 upload. The
// associated data binds sender and recipient so the relaying server cannot
// re-route envelopes undetected. The ciphertexts are three-index windows of
// the ciphertext slab: each share is serialised where its ciphertext will
// lie and sealed in place.
func (c *Client) SealShares(roster []AdvertiseMsg) ([]Envelope, error) {
	self, err := c.freeRow(c.id)
	if err != nil {
		return nil, err
	}
	if err := c.encodeSharesInto(c.received); err != nil {
		return nil, err
	}
	c.have[self] = true
	if err := c.installRoster(roster); err != nil {
		return nil, err
	}
	n, l := len(c.cfg.ClientIDs), c.cfg.SubVectorLen()
	c.session.channel.Reserve(n - 1) // a channel key per peer, the cache sized once
	stride := 4 + 8*l + aead.Overhead
	out := make([]Envelope, 0, n-1)
	var ad [session.RouteADSize]byte
	for rank, to := range c.cfg.ClientIDs {
		if rank == self {
			continue
		}
		key, err := c.session.channelKey(c.roster[rank])
		if err != nil {
			return nil, err
		}
		i := len(out)
		window := c.sealed[i*stride : i*stride : (i+1)*stride]
		pt, err := appendElems(window[aead.NonceSize:aead.NonceSize], c.row(rank))
		if err != nil {
			return nil, err
		}
		ct, err := key.AppendSeal(window, c.rand, pt, session.AppendRouteAD(ad[:0], c.cfg.Round, c.id, to))
		if err != nil {
			return nil, err
		}
		out = append(out, Envelope{From: c.id, To: to, Ciphertext: ct})
	}
	return out, nil
}

// installRoster records the peers' channel public keys. Every sampled
// client must be present: the offline sharing phase needs the full set
// (the §6.1 dropout model has clients vanish later).
func (c *Client) installRoster(roster []AdvertiseMsg) error {
	pubs := c.slabs.pubs
	clear(pubs)
	for _, m := range roster {
		rank, err := c.cfg.rank(m.From)
		if err != nil {
			return err
		}
		if len(m.CipherPub) == 0 {
			return fmt.Errorf("lightsecagg: roster entry for %d has no channel key", m.From)
		}
		if pubs[rank] != nil {
			return fmt.Errorf("lightsecagg: duplicate roster entry for %d", m.From)
		}
		pubs[rank] = m.CipherPub
	}
	if len(roster) != len(pubs) {
		return fmt.Errorf("lightsecagg: roster covers %d/%d clients", len(roster), len(pubs))
	}
	c.roster = pubs
	return nil
}

// OpenEnvelopes unseals the envelopes addressed to this client (origin
// stamped by the server) into the session's plaintext slab and decodes each
// share once, into its sender's row of the received slab. A delivery holds
// at most one envelope per other client: one from this client itself is
// refused (SealShares kept that share). The envelopes are only read —
// in-process they are windows of their senders' slabs. It must run after
// SealShares (which installs the roster).
func (c *Client) OpenEnvelopes(envs []Envelope) error {
	if c.roster == nil {
		return fmt.Errorf("lightsecagg: OpenEnvelopes before SealShares")
	}
	if len(envs) >= len(c.cfg.ClientIDs) {
		return fmt.Errorf("lightsecagg: %d envelopes for the %d other members of the roster", len(envs), len(c.cfg.ClientIDs)-1)
	}
	pt := c.plain
	var ad [session.RouteADSize]byte
	for _, env := range envs {
		if env.From == c.id {
			return fmt.Errorf("lightsecagg: envelope from %d to itself", c.id)
		}
		rank, err := c.freeRow(env.From) // a known sender: the roster covers exactly the ranked ids
		if err != nil {
			return err
		}
		key, err := c.session.channelKey(c.roster[rank])
		if err != nil {
			return err
		}
		if pt, err = key.AppendOpen(pt[:0], env.Ciphertext, session.AppendRouteAD(ad[:0], c.cfg.Round, env.From, c.id)); err != nil {
			return fmt.Errorf("lightsecagg: envelope from %d failed authentication: %w", env.From, err)
		}
		if err := decodeShareInto(c.row(rank), pt); err != nil {
			return fmt.Errorf("lightsecagg: envelope from %d: %w", env.From, err)
		}
		c.have[rank] = true
	}
	return nil
}

// freeRow returns client from's rank if its row of the received slab is
// still unwritten — a second share from one sender is an error, not a
// silent overwrite. The writer marks have[rank] once the row is whole.
func (c *Client) freeRow(from uint64) (int, error) {
	rank, err := c.cfg.rank(from)
	if err != nil {
		return 0, err
	}
	if c.have[rank] {
		return 0, fmt.Errorf("lightsecagg: duplicate envelope from %d", from)
	}
	return rank, nil
}

// row is row rank of the received slab.
func (c *Client) row(rank int) []field.Element {
	l := c.cfg.SubVectorLen()
	return c.received[rank*l : (rank+1)*l]
}

// MaskedInput returns y_i = x_i + z_i[:d] — the step-2 upload. It consumes
// the mask: y_i is built in the mask's memory (the share encoding, its only
// other reader, ran a stage earlier), so a second call is an error instead
// of a double mask, as is encoding shares afterwards.
func (c *Client) MaskedInput(input []field.Element) ([]field.Element, error) {
	if len(input) != c.cfg.Dim {
		return nil, fmt.Errorf("lightsecagg: input length %d, want %d", len(input), c.cfg.Dim)
	}
	if c.masked {
		return nil, fmt.Errorf("lightsecagg: MaskedInput called twice: the mask is consumed")
	}
	c.masked = true
	out := c.random[:c.cfg.Dim]
	for i, x := range input {
		out[i] = field.Add(x, out[i])
	}
	return out, nil
}

// AggregateShare returns s_j = Σ_{i∈survivors} f_i(α_j), the one-shot
// recovery response of step 3. Before summing anything it refuses a list
// shorter than U (a server naming the one survivor {i} would collect
// f_i(α_j) from U clients and interpolate z_i), not strictly ascending or
// naming an unknown id, and fails if any survivor's share is missing (the
// client cannot have received it if that peer never shared) — a peer row
// not marked in have still holds the share this client sealed for that
// peer, and is never summed. The response is the session's L-length slab,
// so the next call or sub-round overwrites it.
func (c *Client) AggregateShare(survivors []uint64) ([]field.Element, error) {
	if u := c.cfg.RecoveryThreshold(); len(survivors) < u {
		return nil, fmt.Errorf("lightsecagg: survivor list of %d is below the recovery threshold %d", len(survivors), u)
	}
	rows := make([][]field.Element, len(survivors))
	for i, id := range survivors {
		if i > 0 && id <= survivors[i-1] {
			return nil, fmt.Errorf("lightsecagg: survivor list not strictly ascending at %d", id)
		}
		rank, err := c.cfg.rank(id)
		if err != nil {
			return nil, err
		}
		if !c.have[rank] {
			return nil, fmt.Errorf("lightsecagg: client %d holds no share from survivor %d", c.id, id)
		}
		rows[i] = c.row(rank)
	}
	out := c.agg
	clear(out)
	for _, row := range rows {
		for t := range out {
			out[t] = field.Add(out[t], row[t])
		}
	}
	return out, nil
}

// Server is the aggregator's round state machine. It collects each stage
// incrementally: AddAdvertise/AddShareBundle/AddMasked/AddAggShare ingest
// one message on arrival (envelope routing and partial masked-input
// accumulation happen immediately), and the per-stage Seal* methods close
// the stage, enforce the threshold, and emit the next broadcast: by the
// time a stage's last message is added, the per-message work is already
// done and Seal is an O(1) (or O(U)) tail. The server never materializes the n×d masked
// matrix — arrivals fold into one d-length running sum.
//
// Methods must be called in stage order. A Server is not safe for
// concurrent use; the round loop (run.go) calls Add* from one goroutine,
// in id order.
type Server struct {
	cfg     Config
	session *ServerSession // never nil: a throwaway one when the caller passed none

	roster map[uint64][]byte // stage 0: id → channel pub
	outbox map[uint64][]Envelope
	shared map[uint64]struct{} // stage-1 senders

	// Streaming masked-input aggregation: arrivals fold into maskedSum on
	// admission; survivors is fixed by SealMasked.
	maskedSet map[uint64]struct{}
	maskedSum []field.Element
	survivors []uint64

	// One-shot recovery state: shares in admission order; recovered once
	// SealAggShares took the mask sum out of maskedSum.
	aggShares map[uint64][]field.Element
	aggOrder  []uint64
	recovered bool
}

// NewSessionServer validates the config and builds the aggregator. sess
// is an optional server session: when non-nil, a roster it cached lets
// InstallRoster skip the advertise stage.
func NewSessionServer(cfg Config, sess *ServerSession) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return newServer(cfg, sess), nil
}

// newServer is NewSessionServer for a cfg the caller has validated.
func newServer(cfg Config, sess *ServerSession) *Server {
	if sess == nil {
		sess = NewServerSession()
	}
	return &Server{cfg: cfg, session: sess}
}

// AddAdvertise ingests one stage-0 channel-key advertisement on arrival.
func (s *Server) AddAdvertise(m AdvertiseMsg) error {
	if s.roster == nil {
		s.roster = make(map[uint64][]byte, len(s.cfg.ClientIDs))
	}
	if _, err := s.cfg.rank(m.From); err != nil {
		return err
	}
	if _, dup := s.roster[m.From]; dup {
		return fmt.Errorf("lightsecagg: duplicate advertisement from %d", m.From)
	}
	s.roster[m.From] = m.CipherPub
	return nil
}

// SealAdvertise closes stage 0 and returns the roster broadcast. The
// offline sharing phase needs every sampled client, so a partial roster
// aborts the round.
func (s *Server) SealAdvertise() ([]AdvertiseMsg, error) {
	if len(s.roster) < len(s.cfg.ClientIDs) {
		return nil, fmt.Errorf("lightsecagg: only %d/%d clients advertised keys",
			len(s.roster), len(s.cfg.ClientIDs))
	}
	return s.rosterBroadcast(), nil
}

// InstallRoster seeds the stage-0 state from a cached roster instead of
// collecting advertisements — the session-resumed skippable advertise
// stage. The roster must come from a previously sealed advertise stage
// over the same client set and key generation.
func (s *Server) InstallRoster(roster []AdvertiseMsg) error {
	if s.roster != nil {
		return fmt.Errorf("lightsecagg: advertise stage already started")
	}
	for _, m := range roster {
		if err := s.AddAdvertise(m); err != nil {
			return err
		}
	}
	_, err := s.SealAdvertise()
	return err
}

func (s *Server) rosterBroadcast() []AdvertiseMsg {
	out := make([]AdvertiseMsg, 0, len(s.roster))
	for _, id := range s.cfg.ClientIDs {
		if pub, ok := s.roster[id]; ok {
			out = append(out, AdvertiseMsg{From: id, CipherPub: pub})
		}
	}
	return out
}

// AddShareBundle routes one sender's sealed envelopes into the recipients'
// outboxes on arrival. The transport-verified origin from overrides
// whatever sender the envelopes claim, so a malicious peer cannot spoof
// (the AEAD associated data additionally binds the route).
func (s *Server) AddShareBundle(from uint64, envs []Envelope) error {
	if _, err := s.cfg.rank(from); err != nil {
		return err
	}
	if s.shared == nil {
		s.shared = make(map[uint64]struct{}, len(s.cfg.ClientIDs))
		s.outbox = make(map[uint64][]Envelope, len(s.cfg.ClientIDs))
	}
	if _, dup := s.shared[from]; dup {
		return fmt.Errorf("lightsecagg: duplicate share bundle from %d", from)
	}
	s.shared[from] = struct{}{}
	for _, env := range envs {
		if _, err := s.cfg.rank(env.To); err != nil {
			return err
		}
		out := s.outbox[env.To]
		if out == nil {
			out = make([]Envelope, 0, len(s.cfg.ClientIDs)-1)
		}
		s.outbox[env.To] = append(out, Envelope{From: from, To: env.To, Ciphertext: env.Ciphertext})
	}
	return nil
}

// SealShareBundles closes stage 1 and returns each recipient's delivery.
// Like the advertise stage, offline sharing needs every sampled client.
func (s *Server) SealShareBundles() (map[uint64][]Envelope, error) {
	if len(s.shared) < len(s.cfg.ClientIDs) {
		return nil, fmt.Errorf("lightsecagg: only %d/%d clients shared masks",
			len(s.shared), len(s.cfg.ClientIDs))
	}
	return s.outbox, nil
}

// AddMasked folds one masked input into the running partial aggregate on
// arrival — the streaming counterpart of secagg.Server.AddMasked. By seal
// time every admitted vector is already summed, so the stage close costs a
// threshold check plus a survivor sort, and the server holds one d-length
// sum instead of n masked vectors.
func (s *Server) AddMasked(m MaskedMsg) error {
	if _, err := s.cfg.rank(m.From); err != nil {
		return err
	}
	if len(m.Y) != s.cfg.Dim {
		return fmt.Errorf("lightsecagg: masked input length %d, want %d", len(m.Y), s.cfg.Dim)
	}
	if s.maskedSet == nil {
		s.maskedSet = make(map[uint64]struct{}, len(s.cfg.ClientIDs))
		s.maskedSum = make([]field.Element, s.cfg.Dim)
	}
	if _, dup := s.maskedSet[m.From]; dup {
		return fmt.Errorf("lightsecagg: duplicate masked input from %d", m.From)
	}
	s.maskedSet[m.From] = struct{}{}
	for i, y := range m.Y {
		s.maskedSum[i] = field.Add(s.maskedSum[i], y)
	}
	return nil
}

// SealMasked closes stage 2: it checks the recovery threshold and returns
// the sorted surviving set for the stage-3 broadcast.
func (s *Server) SealMasked() ([]uint64, error) {
	u := s.cfg.RecoveryThreshold()
	if len(s.maskedSet) < u {
		return nil, fmt.Errorf("lightsecagg: only %d survivors, recovery threshold %d", len(s.maskedSet), u)
	}
	s.survivors = transport.SortedKeys(s.maskedSet)
	return s.survivors, nil
}

// AddAggShare ingests one one-shot recovery response on arrival,
// preserving admission order: SealAggShares reconstructs from the first U
// admitted responders, so a driver need collect no more than U.
func (s *Server) AddAggShare(m AggShareMsg) error {
	if _, err := s.cfg.rank(m.From); err != nil {
		return err
	}
	if len(m.S) != s.cfg.SubVectorLen() {
		return fmt.Errorf("lightsecagg: aggregate share from %d has length %d, want %d",
			m.From, len(m.S), s.cfg.SubVectorLen())
	}
	if s.aggShares == nil {
		s.aggShares = make(map[uint64][]field.Element, s.cfg.RecoveryThreshold())
	}
	if _, dup := s.aggShares[m.From]; dup {
		return fmt.Errorf("lightsecagg: duplicate aggregate share from %d", m.From)
	}
	s.aggShares[m.From] = m.S
	s.aggOrder = append(s.aggOrder, m.From)
	return nil
}

// SealAggShares performs the one-shot recovery from the first U admitted
// responders: it interpolates Σ_{i∈survivors} z_i at the data points, one
// L-word part at a time, and subtracts each part from the server's
// masked sum, which it returns: Σ x_i = Σ y_i − Σ z_i. A second call is
// an error instead of a second subtraction.
func (s *Server) SealAggShares() ([]field.Element, error) {
	if s.recovered {
		return nil, fmt.Errorf("lightsecagg: SealAggShares called twice: the mask is removed")
	}
	if s.survivors == nil {
		if _, err := s.SealMasked(); err != nil {
			return nil, err
		}
	}
	u := s.cfg.RecoveryThreshold()
	if len(s.aggOrder) < u {
		return nil, fmt.Errorf("lightsecagg: only %d share responses, need %d", len(s.aggOrder), u)
	}
	// The first U admitted responders form the cohort (the interpolation
	// is order-independent as long as weights and shares stay aligned).
	responders := s.aggOrder[:u]
	ws, err := recoveryWeights(s.cfg, responders)
	if err != nil {
		return nil, err
	}
	rows := make([][]field.Element, len(responders))
	for i, id := range responders {
		rows[i] = s.aggShares[id]
	}
	// Σ x = Σ y − Σ z. The masked inputs were already folded on arrival;
	// part k covers coordinates [k·L, (k+1)·L), and a part wholly in the
	// padding past Dim is not interpolated.
	s.recovered = true
	l, sum := s.cfg.SubVectorLen(), s.maskedSum
	z := make([]field.Element, l)
	for k := 0; k*l < len(sum); k++ {
		field.WeightedSumInto(z, ws[k], rows)
		for i, y := range sum[k*l : min((k+1)*l, len(sum))] {
			sum[k*l+i] = field.Sub(y, z[i])
		}
	}
	return sum, nil
}

// Lift embeds a signed integer into the field (negative values wrap to
// p − |v|), so sums of centered inputs decode with Center.
func Lift(v int64) field.Element {
	if v >= 0 {
		return field.New(uint64(v))
	}
	return field.Neg(field.New(uint64(-v)))
}

// Center maps a field element back to a signed integer in (−p/2, p/2].
func Center(e field.Element) int64 {
	const p = uint64(1)<<61 - 1
	v := e.Uint64()
	if v > p/2 {
		return -int64(p - v)
	}
	return int64(v)
}
