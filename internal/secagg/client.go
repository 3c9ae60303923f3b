package secagg

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"repro/internal/aead"
	"repro/internal/dh"
	"repro/internal/field"
	"repro/internal/prg"
	"repro/internal/ring"
	"repro/internal/session"
	"repro/internal/shamir"
	"repro/internal/sig"
	"repro/internal/transcript"
	"repro/internal/transport"
	"repro/internal/xnoise"
)

// Client is one participant's state machine for a single aggregation
// round. Methods must be called in stage order; any verification failure
// returns an error, which corresponds to the client aborting (Fig. 5).
type Client struct {
	cfg   Config
	id    uint64
	input ring.Vector
	rand  io.Reader

	signer *sig.Signer // nil when semi-honest

	cipherKey  *dh.KeyPair // c^PK / c^SK
	maskKey    *dh.KeyPair // s^PK / s^SK
	selfStream *prg.Stream // PRG(b_u), the self mask's stream

	// session, when non-nil, supplies the key pairs and caches pairwise
	// secrets across the sub-rounds that share it (key-agreement
	// amortization); nil means ephemeral per-round keys, the classic flow.
	session *Session
	// deal is the session's deal of this ratchet step when this sub-round
	// made it (epoch 0) or reuses it.
	deal *deal

	noise *xnoise.ClientNoise // nil without XNoise

	// buf is a session-less client's one vector (buffer).
	buf []uint64

	// maskedDigest is the transcript digest of this client's own masked
	// upload (only with cfg.TranscriptDigests) — the leaf preimage it will
	// check an inclusion proof against.
	maskedDigest    [32]byte
	hasMaskedDigest bool

	roster     []AdvertiseMsg          // U1 view, ascending by id (rosterEntry)
	u2         []uint64                // ascending
	u3         []uint64                // as the server sent it
	u3sorted   []uint64                // u3 ascending: membership is a binary search
	channelKey map[uint64]*aead.Key    // peer → AE key
	received   map[uint64]*ShareBundle // decrypted bundles from peers, in bundles
	pendingCts map[uint64][]byte       // peer → ciphertext (decrypted lazily at unmask)

	// Scratch of the bundles this client seals and opens: the route AD,
	// the plaintext of the bundle being opened (grown by the first open),
	// and, sized by ShareKeys for the neighbourhood, the bundles received
	// points into and the one array their noise-seed shares decode into.
	ad          [session.RouteADSize]byte
	plain       []byte
	bundles     []ShareBundle
	noiseShares []shamir.Share
}

// NewSessionClient constructs a participant for the round. signer may be
// nil in the semi-honest setting; in malicious mode (a non-nil
// cfg.Registry) it is required and its public key must be registered
// there. input is borrowed, not copied: the client only reads it, and the
// caller must not change it until MaskedInput has returned.
//
// sess is an optional key-agreement session: when non-nil the client
// advertises the session's key pairs instead of generating fresh ones and
// reuses its cached pairwise secrets, so the X25519 work of this round is
// only paid on cache misses. The session must be the same object across
// every sub-round that shares it and must belong to this client.
//
// A client owns one buffer: one Dim-length vector that MaskedInput copies
// the input into and masks in place — the upload — and that the Result
// step receives the round's sum into. A session-less client makes it once
// per round; a session leases it and keeps it across its sub-rounds and
// rounds until RoundSessions.Release hands it back (Session).
func NewSessionClient(cfg Config, id uint64, input ring.Vector, signer *sig.Signer, rand io.Reader, sess *Session) (*Client, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return newClient(cfg, id, input, signer, rand, sess)
}

// newClient is NewSessionClient for a cfg the caller has validated.
func newClient(cfg Config, id uint64, input ring.Vector, signer *sig.Signer, rand io.Reader, sess *Session) (*Client, error) {
	if _, err := cfg.indexOf(id); err != nil {
		return nil, err
	}
	if input.Bits != cfg.Bits || input.Len() != cfg.Dim {
		return nil, fmt.Errorf("secagg: client %d input %d×%db, config wants %d×%db",
			id, input.Len(), input.Bits, cfg.Dim, cfg.Bits)
	}
	if cfg.Registry != nil && signer == nil {
		return nil, fmt.Errorf("secagg: malicious mode requires a signer for client %d", id)
	}
	c := &Client{cfg: cfg, id: id, input: input, rand: rand, signer: signer, session: sess}
	if cfg.XNoise != nil {
		noise, err := xnoise.NewClientNoise(*cfg.XNoise, rand)
		if err != nil {
			return nil, err
		}
		c.noise = noise
	}
	return c, nil
}

// buffer returns the client's one vector (NewClient), Dim long: its
// session's, or its own, made on first use.
func (c *Client) buffer() []uint64 {
	if c.session != nil {
		return c.session.buffer(c.cfg.Dim)
	}
	if c.buf == nil {
		c.buf = make([]uint64, c.cfg.Dim)
	}
	return c.buf
}

// rosterEntry returns id's advertisement in the roster ShareKeys verified.
func (c *Client) rosterEntry(id uint64) (AdvertiseMsg, bool) {
	i, ok := slices.BinarySearchFunc(c.roster, id, func(m AdvertiseMsg, id uint64) int { return cmp.Compare(m.From, id) })
	if !ok {
		return AdvertiseMsg{}, false
	}
	return c.roster[i], true
}

// NoiseSeeds exposes the client's XNoise seeds for white-box protocol
// tests; production code never reads them outside the state machine.
func (c *Client) NoiseSeeds() []field.Element {
	if c.noise == nil {
		return nil
	}
	out := make([]field.Element, len(c.noise.Seeds))
	copy(out, c.noise.Seeds)
	return out
}

// installKeys sets the round's key pairs — the session's (amortized flow)
// or freshly generated ephemeral ones. The self-mask seed is drawn where it
// is dealt, in ShareKeys.
func (c *Client) installKeys() error {
	if c.session != nil {
		c.cipherKey, c.maskKey = c.session.keyPairs()
		return nil
	}
	var err error
	if c.cipherKey, err = dh.Generate(c.rand); err != nil {
		return err
	}
	c.maskKey, err = dh.Generate(c.rand)
	return err
}

// SkipAdvertise installs the session's keys without emitting a stage-0
// message, for drivers that resume a live session on a cached roster (the
// skippable advertise stage).
func (c *Client) SkipAdvertise() error {
	if c.session == nil {
		return fmt.Errorf("secagg: client %d cannot skip advertise without a session", c.id)
	}
	return c.installKeys()
}

// AdvertiseKeys runs stage 0: generate (or, with a session, reuse) the two
// key pairs and advertise the public halves.
func (c *Client) AdvertiseKeys() (AdvertiseMsg, error) {
	if err := c.installKeys(); err != nil {
		return AdvertiseMsg{}, err
	}
	msg := AdvertiseMsg{
		From:      c.id,
		CipherPub: c.cipherKey.PublicBytes(),
		MaskPub:   c.maskKey.PublicBytes(),
	}
	if c.cfg.Registry != nil {
		msg.Signature = c.signer.Sign(advertisePayload(msg))
	}
	return msg, nil
}

// ShareKeys runs stage 1: verify the roster, draw the self-mask seed,
// Shamir-share the mask secret key, the self-mask seed, and the removable
// noise seeds, and encrypt each peer's bundle. On a session, a sub-round
// at MaskEpoch e > 0 whose ratchet step already dealt on this roster
// returns that deal's ciphertexts instead (see Session). A roster that
// arrives ascending by id is borrowed, not copied: the caller must not
// change it while the client, or its session's deal of the step, is in
// use; the returned list is the caller's to send, not to change.
func (c *Client) ShareKeys(roster []AdvertiseMsg) ([]EncryptedShareMsg, error) {
	if len(roster) < c.cfg.Threshold {
		return nil, fmt.Errorf("secagg: client %d saw |U1|=%d < t=%d", c.id, len(roster), c.cfg.Threshold)
	}
	dealsPerStep := c.session != nil && c.cfg.XNoise == nil
	if dealsPerStep && c.cfg.MaskEpoch > 0 {
		if d := c.session.dealAt(c.cfg.KeyRatchet); d != nil && d.fits(c.cfg, c.id, roster) {
			c.deal, c.roster, c.selfStream = d, d.roster, d.selfStream
			c.channelKey, c.received = d.channelKey, d.opened
			return d.out, nil
		}
	}
	// U1 is kept as the roster ascending by id and searched (rosterEntry):
	// this runs per (client, chunk), and the server seals it in that order.
	byFrom := func(a, b AdvertiseMsg) int { return cmp.Compare(a.From, b.From) }
	if !slices.IsSortedFunc(roster, byFrom) {
		roster = slices.Clone(roster)
		slices.SortFunc(roster, byFrom)
	}
	keys := make([][]byte, 0, 2*len(roster))
	for i, m := range roster {
		if i > 0 && roster[i-1].From == m.From {
			return nil, fmt.Errorf("secagg: duplicate roster entry for %d", m.From)
		}
		if c.cfg.Registry != nil {
			if !c.cfg.Registry.VerifyFrom(m.From, advertisePayload(m), m.Signature) {
				return nil, fmt.Errorf("secagg: bad advertise signature from %d", m.From)
			}
		}
		keys = append(keys, m.CipherPub, m.MaskPub)
	}
	// "Assert that all the public key pairs are different."
	slices.SortFunc(keys, bytes.Compare)
	for i := 1; i < len(keys); i++ {
		if bytes.Equal(keys[i-1], keys[i]) {
			return nil, fmt.Errorf("secagg: repeated public key %x in roster", keys[i])
		}
	}
	c.roster = roster
	if _, ok := c.rosterEntry(c.id); !ok {
		return nil, fmt.Errorf("secagg: client %d missing from roster", c.id)
	}

	// Share recipients: the client's live neighborhood plus itself. Under
	// the complete graph (classic SecAgg) this is all of U1; under a
	// SecAgg+ graph it is the O(log n) neighborhood.
	nbrs := c.cfg.neighborhood(c.id)
	peers := make([]uint64, 0, len(nbrs)+1)
	for _, m := range roster {
		if _, ok := slices.BinarySearch(nbrs, m.From); ok || m.From == c.id {
			peers = append(peers, m.From)
		}
	}
	if len(peers) < c.cfg.Threshold {
		return nil, fmt.Errorf("secagg: client %d has %d live neighbors < t=%d",
			c.id, len(peers), c.cfg.Threshold)
	}
	if c.session != nil {
		// One mask stream and one channel key per live neighbor: size the
		// caches once instead of growing them pair by pair.
		c.session.mask.Reserve(len(peers) - 1)
		c.session.channel.Reserve(len(peers) - 1)
	}

	// Shamir abscissas: the global 1-based index of each peer within the
	// sampled set, so all parties agree on share coordinates.
	xs := make([]field.Element, len(peers))
	for i, id := range peers {
		idx, err := c.cfg.indexOf(id)
		if err != nil {
			return nil, err
		}
		xs[i] = field.New(uint64(idx))
	}

	var buf [8]byte
	if _, err := io.ReadFull(c.rand, buf[:]); err != nil {
		return nil, fmt.Errorf("secagg: sampling self seed: %w", err)
	}
	selfSeed := field.RandomElement(buf)
	c.selfStream = prg.NewStreamFromElement(selfSeed)
	// One dealing table: its rows are the mask key's chunks, b_u, then the
	// removable noise seeds g_{u,1..T} (Fig. 5 never shares g_{u,0}), so
	// peer i's shares lie in table[i·rows:], in its bundle's order.
	chunks := bytesToChunks(c.maskKey.PrivateBytes())
	secrets := append(chunks[:], selfSeed)
	if c.noise != nil {
		secrets = append(secrets, c.noise.Seeds[1:]...)
	}
	rows := len(secrets)
	table := make([]shamir.Share, len(peers)*rows)
	if err := shamir.Deal(table, secrets, c.cfg.Threshold, xs, c.rand); err != nil {
		return nil, fmt.Errorf("secagg: dealing client %d's secrets: %w", c.id, err)
	}

	c.channelKey = make(map[uint64]*aead.Key, len(peers))
	c.received = make(map[uint64]*ShareBundle, len(peers))
	c.bundles = make([]ShareBundle, 0, len(peers))
	if c.noise != nil {
		c.noiseShares = make([]shamir.Share, 0, (len(peers)-1)*(rows-numKeyChunks-1))
	}
	out := make([]EncryptedShareMsg, 0, len(peers)-1)
	for i, peer := range peers {
		row := table[i*rows : (i+1)*rows : (i+1)*rows]
		bundle := ShareBundle{From: c.id, To: peer, MaskKey: [numKeyChunks]shamir.Share(row),
			SelfSeed: row[numKeyChunks], NoiseSeeds: row[numKeyChunks+1:]}
		if peer == c.id {
			// Keep own shares locally so they participate in unmasking.
			c.bundles = append(c.bundles, bundle)
			c.received[c.id] = &c.bundles[len(c.bundles)-1]
			continue
		}
		entry, _ := c.rosterEntry(peer) // peers ⊆ U1
		key, err := c.agreeChannelKey(entry.CipherPub)
		if err != nil {
			return nil, fmt.Errorf("secagg: channel key agreement with %d: %w", peer, err)
		}
		c.channelKey[peer] = key
		pt, err := encodeBundle(bundle)
		if err != nil {
			return nil, err
		}
		ct, err := key.Seal(c.rand, pt, session.AppendRouteAD(c.ad[:0], c.cfg.Round, c.id, peer))
		transport.Release(pt)
		if err != nil {
			return nil, err
		}
		out = append(out, EncryptedShareMsg{From: c.id, To: peer, Ciphertext: ct})
	}
	if dealsPerStep && c.cfg.MaskEpoch == 0 {
		c.deal = &deal{cfg: c.cfg, roster: roster, selfStream: c.selfStream, out: out,
			channelKey: c.channelKey, opened: c.received}
		c.session.keepDeal(c.cfg.KeyRatchet, c.deal)
	}
	return out, nil
}

// MaskedInput runs stage 2: store the relayed ciphertexts, derive the
// pairwise and self masks, add the XNoise components, and emit the masked
// input y_u. y_u is the client's buffer (NewClient): the caller must be
// done with it before the Result step or, with a session, the session's
// next sub-round.
func (c *Client) MaskedInput(ciphertexts []EncryptedShareMsg) (MaskedInputMsg, error) {
	if len(ciphertexts)+1 < c.cfg.Threshold { // +1: own bundle kept locally
		return MaskedInputMsg{}, fmt.Errorf("secagg: client %d received %d share ciphertexts < t-1=%d",
			c.id, len(ciphertexts), c.cfg.Threshold-1)
	}
	for _, m := range ciphertexts {
		if m.To != c.id {
			return MaskedInputMsg{}, fmt.Errorf("secagg: misrouted ciphertext for %d at %d", m.To, c.id)
		}
		if _, known := c.rosterEntry(m.From); !known {
			return MaskedInputMsg{}, fmt.Errorf("secagg: ciphertext from unknown client %d", m.From)
		}
	}
	if d := c.deal; d != nil && d.delivered != nil {
		// Under the step's deal every delivery after the first must be the
		// first: the bundles opened under the deal are what Unmask reveals.
		if !d.redelivered(ciphertexts) {
			return MaskedInputMsg{}, fmt.Errorf("%w (client %d)", ErrDealMismatch, c.id)
		}
		c.pendingCts, c.u2 = d.delivered, d.u2
	} else {
		c.pendingCts = make(map[uint64][]byte, len(ciphertexts))
		u2set := map[uint64]struct{}{c.id: {}}
		for _, m := range ciphertexts {
			c.pendingCts[m.From] = m.Ciphertext
			u2set[m.From] = struct{}{}
		}
		c.u2 = transport.SortedKeys(u2set)
		if d != nil {
			d.delivered, d.u2 = c.pendingCts, c.u2
		}
	}

	y := ring.Vector{Bits: c.cfg.Bits, Data: c.buffer()}
	copy(y.Data, c.input.Data)
	// XNoise: add the full excessive noise before masking (Fig. 5 setup:
	// Δ̃_u = Δ_u + Σ_k n_{u,k}), each component straight into the upload.
	if c.noise != nil {
		err := y.AddSignedVia(func(acc []int64) error {
			return c.noise.AddTotalNoise(*c.cfg.XNoise, c.cfg.sampler(), acc)
		})
		if err != nil {
			return MaskedInputMsg{}, err
		}
	}
	// Self mask p_u = PRG(b_u) plus pairwise masks p_{u,v} over u2 (the set
	// that holds shares of our key, hence can unmask us if we die), each read
	// from this sub-round's window of its stream.
	masks, err := c.masks()
	if err != nil {
		return MaskedInputMsg{}, err
	}
	if err := expandMasks(y, masks); err != nil {
		return MaskedInputMsg{}, err
	}
	if c.cfg.TranscriptDigests {
		c.maskedDigest = transcript.Digest(y.Data)
		c.hasMaskedDigest = true
	}
	return MaskedInputMsg{From: c.id, Y: y.Data}, nil
}

// masks returns the client's self and pairwise masks over c.u2, aimed at
// this sub-round's window. On a deal the list is resolved once, at the
// step's first delivery, and kept beside the deal's self stream: every
// later sub-round of the step was delivered the same ciphertexts (so the
// same U2) and keys against the same roster at the same ratchet step, so
// it would resolve the same streams. Each mask independently resolves its
// stream — a key agreement or a cache lookup — across the worker pool
// (resolveMasks).
func (c *Client) masks() ([]ring.Mask, error) {
	window := c.cfg.maskWindow()
	if d := c.deal; d != nil && d.masks != nil {
		for i := range d.masks {
			d.masks[i].Off = window
		}
		return d.masks, nil
	}
	tasks := make([]maskTask, 0, len(c.u2))
	tasks = append(tasks, maskTask{sign: 1, id: c.id, self: true})
	for _, peer := range c.u2 {
		if peer != c.id {
			tasks = append(tasks, maskTask{sign: pairMaskSign(c.id, peer), id: c.id, peer: peer})
		}
	}
	masks, err := resolveMasks(tasks, window, func(t maskTask) (*prg.Stream, error) {
		if t.self {
			return c.selfStream, nil
		}
		entry, _ := c.rosterEntry(t.peer) // U2 ⊆ U1, checked on delivery
		s, err := c.maskStream(entry.MaskPub)
		if err != nil {
			return nil, fmt.Errorf("secagg: mask key agreement %d↔%d: %w", t.id, t.peer, err)
		}
		return s, nil
	})
	if err != nil {
		return nil, err
	}
	if c.deal != nil {
		c.deal.masks = masks
	}
	return masks, nil
}

// receiveResult is the Result step: a sum in its wire form (Result.SumLE)
// is copied into the client's buffer and handed on as Sum; a sum the
// server handed over itself (in-process) stays the server's.
func (c *Client) receiveResult(res Result) (Result, error) {
	if res.Sum != nil {
		return res, nil
	}
	sum := c.buffer()
	if len(res.SumLE) != 8*len(sum) {
		return Result{}, fmt.Errorf("secagg: client %d got a result of %d bytes, want %d coordinates",
			c.id, len(res.SumLE), len(sum))
	}
	for i := range sum {
		sum[i] = binary.LittleEndian.Uint64(res.SumLE[8*i:])
	}
	res.Sum, res.SumLE = sum, nil
	return res, nil
}

// MaskedDigest returns the transcript digest of this client's own masked
// upload, with ok=false before MaskedInput or without
// cfg.TranscriptDigests. The digest is what the server must have
// committed under its input subtree for this client's inclusion proof to
// verify.
func (c *Client) MaskedDigest() ([32]byte, bool) {
	return c.maskedDigest, c.hasMaskedDigest
}

// maskStream returns the pairwise mask stream with the peer advertising
// peerPub, keyed by the (ratcheted) secret s_{u,v} = KA.agree(s^SK_u,
// s^PK_v), advanced KeyRatchet steps. The session caches secret and stream
// across sub-rounds; without one the agreement runs inline, as in classic
// SecAgg.
func (c *Client) maskStream(peerPub []byte) (*prg.Stream, error) {
	if c.session != nil {
		return c.session.maskStream(peerPub, c.cfg.KeyRatchet)
	}
	raw, err := c.maskKey.Agree(peerPub)
	if err != nil {
		return nil, err
	}
	return newPairMaskStream(dh.RatchetN(raw, c.cfg.KeyRatchet)), nil
}

// agreeChannelKey returns the (ratcheted) channel-encryption key with the
// peer advertising peerPub, via the session cache when one is live.
func (c *Client) agreeChannelKey(peerPub []byte) (*aead.Key, error) {
	if c.session != nil {
		return c.session.channelKey(peerPub, c.cfg.KeyRatchet)
	}
	raw, err := c.cipherKey.Agree(peerPub)
	if err != nil {
		return nil, err
	}
	return aead.NewKey(dh.RatchetN(raw, c.cfg.KeyRatchet)), nil
}

// checkU3 verifies the parts of a claimed U3 the client can vouch for: a
// neighbor can only appear in U3 if it reached ShareKeys (is in the
// client's U2). Under the complete graph this is the full U3 ⊆ U2 check of
// Fig. 5; under a SecAgg+ graph it is the neighborhood-restricted variant.
// Every member must be of the cohort: the client counts dropouts as
// |cohort| − |U3|, so an outsider would understate them.
func (c *Client) checkU3(u3 []uint64) error {
	var nbrs []uint64 // under the complete graph every other member
	if c.cfg.Graph != nil {
		nbrs = c.cfg.neighborhood(c.id)
	}
	for _, v := range u3 {
		if _, ok := slices.BinarySearch(c.cfg.ClientIDs, v); !ok {
			return fmt.Errorf("%w: U3 names %d at client %d", ErrIDOutsideCohort, v, c.id)
		}
		if c.cfg.Graph != nil && v != c.id {
			if _, mine := slices.BinarySearch(nbrs, v); !mine {
				continue
			}
		}
		if _, ok := slices.BinarySearch(c.u2, v); !ok {
			return fmt.Errorf("secagg: U3 member %d not in U2 at client %d", v, c.id)
		}
	}
	return nil
}

// Errors of a malformed id set: the server's U3 names a client outside the
// cohort, or U3, U4 or U5 names one client twice. Either would let a
// server pad a set — U3 to understate the dropouts a client's noise
// reveal is sized by (§3.3), U4 or U5 to meet the threshold t with fewer
// clients.
var (
	ErrIDOutsideCohort = errors.New("secagg: id set names a client outside the cohort")
	ErrRepeatedID      = errors.New("secagg: id set names a client twice")
)

// ascending returns ids ascending — ids itself when it already is, else a
// sorted copy — and refuses a set that names an id twice (ErrRepeatedID).
func ascending(ids []uint64) ([]uint64, error) {
	if !slices.IsSorted(ids) {
		ids = sortedCopy(ids)
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] == ids[i-1] {
			return nil, fmt.Errorf("%w: %d", ErrRepeatedID, ids[i])
		}
	}
	return ids, nil
}

// ConsistencyCheck runs stage 3: adopt U3 and, in malicious mode, sign
// (round ∥ U3). Every stage table runs it, and Unmask refuses to run
// before it (ErrUnmaskBeforeConsistency). U3 must name distinct members
// of the cohort (ErrIDOutsideCohort, ErrRepeatedID). u3 is borrowed, not
// copied — and, when it arrives ascending, searched in place: the caller
// must not change it while the client, or its session's deal of the step,
// is in use. Both links hand over a slice of the request's own
// (Server.SealMasked returns a copy, a decoded frame a fresh slice).
func (c *Client) ConsistencyCheck(u3 []uint64) (ConsistencyMsg, error) {
	if len(u3) < c.cfg.Threshold {
		return ConsistencyMsg{}, fmt.Errorf("secagg: client %d saw |U3|=%d < t", c.id, len(u3))
	}
	u3sorted, err := ascending(u3)
	if err != nil {
		return ConsistencyMsg{}, fmt.Errorf("secagg: U3 at client %d: %w", c.id, err)
	}
	if err := c.checkU3(u3sorted); err != nil {
		return ConsistencyMsg{}, err
	}
	c.u3, c.u3sorted = u3, u3sorted
	if c.cfg.Registry == nil {
		return ConsistencyMsg{From: c.id}, nil
	}
	return ConsistencyMsg{
		From:      c.id,
		Signature: c.signer.Sign(consistencyPayload(c.cfg.Round, u3)),
	}, nil
}

// ErrUnmaskBeforeConsistency refuses an unmask request that reaches a
// client before the ConsistencyCheck stage gave it U3.
var ErrUnmaskBeforeConsistency = errors.New("secagg: unmask request before the consistency check")

// Unmask runs stage 4: verify the server's survivor claims (U3 as
// adopted, |U4| ≥ t distinct clients, U4 ⊆ U3; malicious mode: every
// signature in the request), decrypt the stored share ciphertexts, and
// reveal exactly the shares prescribed by Fig. 5 plus this client's own
// removable noise seeds.
func (c *Client) Unmask(req UnmaskRequest) (UnmaskMsg, error) {
	if c.u3 == nil {
		return UnmaskMsg{}, fmt.Errorf("%w at client %d", ErrUnmaskBeforeConsistency, c.id)
	}
	if !slices.Equal(req.U3, c.u3) {
		return UnmaskMsg{}, fmt.Errorf("secagg: server changed U3 at client %d", c.id)
	}
	if len(req.U4) < c.cfg.Threshold {
		return UnmaskMsg{}, fmt.Errorf("secagg: |U4|=%d < t at client %d", len(req.U4), c.id)
	}
	if _, err := ascending(req.U4); err != nil {
		return UnmaskMsg{}, fmt.Errorf("secagg: U4 at client %d: %w", c.id, err)
	}
	if !subset(req.U4, c.u3sorted) {
		return UnmaskMsg{}, fmt.Errorf("secagg: U4 ⊄ U3 at client %d", c.id)
	}
	if c.cfg.Registry != nil {
		// The dropout-understatement defense (§3.3): every claimed
		// survivor must present a valid signature over (round, U3).
		payload := consistencyPayload(c.cfg.Round, req.U3)
		for _, v := range req.U4 {
			if !c.cfg.Registry.VerifyFrom(v, payload, req.Signatures[v]) {
				return UnmaskMsg{}, fmt.Errorf("secagg: client %d: invalid consistency signature for %d", c.id, v)
			}
		}
	}

	if d := c.deal; d != nil && d.reveal != nil && slices.Equal(c.u3sorted, d.revealU3) {
		// The deal's U2 and the same U3: the step's first reveal, again.
		if err := c.session.reveal(c.cfg.KeyRatchet, c.u2, c.u3sorted); err != nil {
			return UnmaskMsg{}, err
		}
		return *d.reveal, nil
	}
	out := UnmaskMsg{
		From:           c.id,
		MaskKeyShares:  make(map[uint64][numKeyChunks]shamir.Share),
		SelfSeedShares: make(map[uint64]shamir.Share),
	}
	for _, v := range c.u2 {
		bundle, err := c.bundleFrom(v)
		if err != nil {
			return UnmaskMsg{}, err
		}
		if _, live := slices.BinarySearch(c.u3sorted, v); live {
			out.SelfSeedShares[v] = bundle.SelfSeed
		} else {
			out.MaskKeyShares[v] = bundle.MaskKey
		}
	}
	if c.noise != nil {
		numDropped := len(c.cfg.ClientIDs) - len(c.u3)
		out.OwnNoiseSeeds = make(map[int]field.Element)
		for _, k := range c.cfg.XNoise.RemovalComponents(numDropped) {
			out.OwnNoiseSeeds[k] = c.noise.Seeds[k]
		}
	}
	if c.session != nil {
		// The session's mask key spans the step's sub-rounds: never hand
		// the server both kinds of share for one peer (Session, reveal ledger).
		if err := c.session.reveal(c.cfg.KeyRatchet, c.u2, c.u3sorted); err != nil {
			return UnmaskMsg{}, err
		}
	}
	if d := c.deal; d != nil && d.reveal == nil {
		d.reveal, d.revealU3 = &out, c.u3sorted
	}
	return out, nil
}

// holdsBundleFrom reports whether this client received (or locally kept) a
// share bundle from v.
func (c *Client) holdsBundleFrom(v uint64) bool {
	if _, ok := c.received[v]; ok {
		return true
	}
	_, ok := c.pendingCts[v]
	return ok
}

// bundleFrom returns (decrypting on first use) the share bundle peer v sent
// to this client.
func (c *Client) bundleFrom(v uint64) (ShareBundle, error) {
	if b, ok := c.received[v]; ok {
		return *b, nil
	}
	ct, ok := c.pendingCts[v]
	if !ok {
		return ShareBundle{}, fmt.Errorf("secagg: client %d has no ciphertext from %d", c.id, v)
	}
	key, ok := c.channelKey[v]
	if !ok {
		entry, _ := c.rosterEntry(v) // a ciphertext from outside U1 was refused on arrival
		var err error
		if key, err = c.agreeChannelKey(entry.CipherPub); err != nil {
			return ShareBundle{}, err
		}
		c.channelKey[v] = key
	}
	round := c.cfg.Round // the sub-round whose AD sealed the bundle: the deal's, under one
	if c.deal != nil {
		round = c.deal.cfg.Round
	}
	pt, err := key.AppendOpen(c.plain[:0], ct, session.AppendRouteAD(c.ad[:0], round, v, c.id))
	if err != nil {
		return ShareBundle{}, fmt.Errorf("secagg: client %d cannot decrypt bundle from %d: %w", c.id, v, err)
	}
	c.plain = pt
	bundle, noise, err := decodeBundle(pt, c.noiseShares)
	if err != nil {
		return ShareBundle{}, err
	}
	if bundle.From != v || bundle.To != c.id {
		return ShareBundle{}, fmt.Errorf("secagg: bundle routing mismatch (%d→%d, expected %d→%d)",
			bundle.From, bundle.To, v, c.id)
	}
	c.bundles, c.noiseShares = append(c.bundles, bundle), noise
	c.received[v] = &c.bundles[len(c.bundles)-1]
	return bundle, nil
}

// RevealNoiseShares runs stage 5: surrender shares of the removable noise
// seeds of clients in U3\U5 (included in the aggregate but dead before
// reporting their seeds). U5 must name at least t distinct members of U3.
func (c *Client) RevealNoiseShares(req NoiseShareRequest) (NoiseShareMsg, error) {
	if c.noise == nil {
		return NoiseShareMsg{From: c.id}, nil
	}
	if len(req.U5) < c.cfg.Threshold {
		return NoiseShareMsg{}, fmt.Errorf("secagg: |U5|=%d < t at client %d", len(req.U5), c.id)
	}
	u5, err := ascending(req.U5)
	if err != nil {
		return NoiseShareMsg{}, fmt.Errorf("secagg: U5 at client %d: %w", c.id, err)
	}
	if !subset(u5, c.u3sorted) {
		return NoiseShareMsg{}, fmt.Errorf("secagg: U5 ⊄ U3 at client %d", c.id)
	}
	numDropped := len(c.cfg.ClientIDs) - len(c.u3)
	ks := c.cfg.XNoise.RemovalComponents(numDropped)
	out := NoiseShareMsg{From: c.id, Shares: make(map[uint64]map[int]shamir.Share)}
	for _, v := range c.u3 {
		if _, live := slices.BinarySearch(u5, v); live {
			continue
		}
		if !c.holdsBundleFrom(v) {
			// Not a neighbor (SecAgg+): this client holds no shares for v.
			continue
		}
		bundle, err := c.bundleFrom(v)
		if err != nil {
			return NoiseShareMsg{}, err
		}
		m := make(map[int]shamir.Share, len(ks))
		for _, k := range ks {
			// bundle.NoiseSeeds is indexed k-1 (k starts at 1).
			if k-1 >= len(bundle.NoiseSeeds) {
				return NoiseShareMsg{}, fmt.Errorf("secagg: bundle from %d lacks noise share %d", v, k)
			}
			m[k] = bundle.NoiseSeeds[k-1]
		}
		out.Shares[v] = m
	}
	return out, nil
}

// --- small helpers ---

func sortedCopy(ids []uint64) []uint64 {
	out := slices.Clone(ids)
	slices.Sort(out)
	return out
}

// subset reports whether every id in sub is in super, which is ascending.
func subset(sub, super []uint64) bool {
	for _, id := range sub {
		if _, ok := slices.BinarySearch(super, id); !ok {
			return false
		}
	}
	return true
}
