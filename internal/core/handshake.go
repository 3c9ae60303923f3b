package core

import (
	"context"
	crand "crypto/rand"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/engine"
	"repro/internal/secagg"
	"repro/internal/sig"
	"repro/internal/transport"
	"repro/internal/xnoise"
)

// The re-key handshake: how a wire deployment decides, before each round,
// whether the coming round resumes the live key generation (skipped
// advertise stage, cached pairwise secrets, ratcheted mask streams) or
// re-keys from scratch. It is the only place a key generation is resumed
// across rounds: in process one never outlives its round (core.SessionPool
// only shares it across the round's chunks). A deployment has no view of
// the drop schedule, so the decision is negotiated on the wire:
//
//	clients → server  RoundHello              ready for the next offer
//	server → clients  RoundOffer   (signed)   round, substrate, proposed
//	                                          resume-or-rekey, ratchet step,
//	                                          roster hash
//	clients → server  RoundAck                session state hash, dropout
//	                                          taint, ratchet high-water mark
//	server → clients  RoundCommit  (signed)   the final decision
//
// The hello makes the handshake restart-tolerant: a broadcast to whatever
// connections happen to exist would race client re-dials (a bounced
// client's fresh connection replaces its stale one asynchronously), so the
// server sends the offer only after each expected client announced
// readiness on its *current* connection — or the deadline expired, in
// which case the absent clients miss the round and the protocol's
// thresholds decide downstream.
//
// The server proposes resume only when its session holds a roster for
// exactly the round's client set and the key generation has rounds left
// (HandshakeConfig.KeyRounds). The proposal survives into the commit as a
// *full* resume only if every client acked with a matching state hash, no
// taint, and the same ratchet high-water mark. Members that diverge — a
// mismatched or missing hash, client- or server-side taint, a stale
// ratchet, a malformed or missing ack, or absence from the cached roster —
// no longer burn the whole generation: the commit carries the **divergent
// subset**, those members re-key their own key pairs and re-advertise, and
// everyone else invalidates exactly the edges touching them (RekeyEdges)
// while keeping every other cached secret. Churn thereby degrades the
// round to O(churned edges) of key agreement instead of resetting it to
// n·k. Only when the divergent subset leaves fewer than two cached
// members — so no cached edge would survive anyway — or when the server
// has no roster or ratchet budget at all does the handshake fall back to
// the clean full re-key; as before, every failure mode downgrades, never
// wedges.
//
// Commit and offer are Ed25519-signed when the deployment configures a
// server signer, so a network adversary cannot force clients onto a stale
// decision; the acks are authenticated by the transport's sender stamping
// (the same trust the round stages place in it). Replayed acks from an
// earlier round carry a mismatched round number and count as re-key votes
// rather than aborting the handshake. PROTOCOL.md documents the byte
// layouts and the full state machine; ARCHITECTURE.md ("Sessions and the
// key-reuse threat model") covers the threat model of resumed key
// generations.

// The handshake's codec tags (tagRoundOffer … tagRoundHello) are in
// codec.go's block with the rest of the 0xD0 family.
const (
	// handshakeVersion versions the message layouts together; a
	// mixed-version peer fails loudly at decode. Version 2 added the
	// divergent-member section to the commit (partial resume); version 3
	// added the NoiseEpoch field to offer and commit, pinning the noise
	// draw-sequence version per round. Version 4 changed no field: it
	// gates the mask expansion layout (ring.MaskManyInPlace: ⌊64/Bits⌋
	// coordinates per keystream word), which both ends of every pairwise
	// mask must share, so builds on either side of it refuse each other
	// here instead of aggregating garbage. Version 5 changed no field
	// either: it moved the four handshake tags from 0x05–0x08, which the
	// control messages also used, to 0x0B–0x0E.
	handshakeVersion = 5

	// maxHandshakeSig caps a declared signature length (Ed25519 needs 64).
	maxHandshakeSig = 1 << 10
)

// ErrProtocolNotOnWire refuses a handshake for a substrate the wire does
// not run: the wire speaks the SecAgg family only (ProtocolAuto through
// ProtocolSecAggPlus). ProtocolLightSecAgg, the paper's reduced-round
// baseline, runs in process only, so a config naming it is refused before
// any frame is sent and an offer carrying its protocol byte at decode.
var ErrProtocolNotOnWire = errors.New("core: protocol does not run on the wire")

// wireProtocol refuses p unless the wire runs it.
func wireProtocol(p Protocol) error {
	if p < ProtocolAuto || p > ProtocolSecAggPlus {
		return fmt.Errorf("%w: %v", ErrProtocolNotOnWire, p)
	}
	return nil
}

// RoundOffer is the server's pre-round announcement: the round number, the
// substrate, and the resume-or-rekey proposal with the state it presumes.
type RoundOffer struct {
	Round    uint64
	Protocol Protocol
	// Resume proposes resuming the live key generation; false announces a
	// clean re-key (fresh advertise stage).
	Resume bool
	// Ratchet is the KeyRatchet step the resumed round would run at; 0 on
	// a re-key proposal.
	Ratchet uint64
	// RosterHash digests the roster the server would resume on (zero on a
	// re-key proposal); clients compare it against their cached roster.
	RosterHash [32]byte
	// NoiseEpoch is the noise draw-sequence version the round will run
	// under (secagg.Config.NoiseEpoch). Announced on every offer — resume
	// or re-key — so client and server never regenerate XNoise components
	// from different sampler sequences; clients reject epochs beyond
	// xnoise.MaxNoiseEpoch.
	NoiseEpoch uint64
	// Signature is the server's Ed25519 signature over the offer body;
	// empty in semi-honest deployments.
	Signature []byte
}

// RoundAck is a client's reply: the state it could resume on, reported
// raw so the server can diagnose divergence, plus the client's verdict.
type RoundAck struct {
	Round uint64
	From  uint64
	// CanResume is the client's own verdict: it holds an untainted session
	// whose roster hash and ratchet position match the offer exactly.
	CanResume bool
	// Tainted reports client-side dropout taint (a round in flight or
	// abandoned on this key generation).
	Tainted bool
	// HasHash distinguishes "no cached roster" from a zero hash.
	HasHash   bool
	StateHash [32]byte
	// NextRatchet is the client's derivation-point high-water mark.
	NextRatchet uint64
}

// RoundCommit is the server's final decision, broadcast after the acks.
type RoundCommit struct {
	Round   uint64
	Resume  bool
	Ratchet uint64
	// NoiseEpoch echoes the offer's noise draw-sequence version; clients
	// verify the echo so a replayed commit cannot flip the sampler.
	NoiseEpoch uint64
	// Divergent, non-empty only on a partial resume, lists the members
	// (ascending) whose state diverged: they re-key their own key pairs and
	// re-advertise in the coming round, while every other member invalidates
	// exactly the edges touching them and keeps the rest of its cache.
	Divergent []uint64
	// Signature is the server's Ed25519 signature over the commit body
	// (including the divergent section); empty in semi-honest deployments.
	Signature []byte
}

// Signature domain separators: the signed payload is the label followed by
// the encoded message body (everything before the signature section).
var (
	offerSigLabel  = []byte("dordis/handshake/offer/v1|")
	commitSigLabel = []byte("dordis/handshake/commit/v1|")
)

func sigPayload(label, body []byte) []byte {
	out := make([]byte, 0, len(label)+len(body))
	out = append(out, label...)
	return append(out, body...)
}

// The handshake frames are read and written through the shared
// transport.Reader/Writer, like every other payload of the 0xD0 family:
// magic, tag, version (transport.NewVersionedWriter/NewVersionedReader),
// then little-endian fixed-width fields. A signed message ends in a
// [len:2][sig] blob, and its signed body is every byte before that blob.

// flagByte packs the set flags, bit i for flags[i].
func flagByte(flags ...bool) (b byte) {
	for i, f := range flags {
		if f {
			b |= 1 << i
		}
	}
	return b
}

// readFlags reads a flag byte and refuses bits outside known: an accepted
// frame carries no slack a peer could hide a second meaning in.
func readFlags(r *transport.Reader, known byte) byte {
	b := r.Byte()
	if b&^known != 0 {
		r.Fail(fmt.Errorf("unknown flag bits %#x", b))
	}
	return b
}

// signFrame ends a signed message: what w holds is the body, signed under
// label when the deployment has a signer, and the signature blob (empty
// otherwise) follows it.
func signFrame(w *transport.Writer, signer *sig.Signer, label []byte) []byte {
	body, _ := w.Done() // no capped field: cannot fail
	var sg []byte
	if signer != nil {
		sg = signer.Sign(sigPayload(label, body))
	}
	return transport.AppendBlob(body, sg)
}

// openSignature ends the decode of the signed message p (named what in
// errors): it reads the trailing signature blob, rejects anything after
// it, and — serverPub, when non-empty, making a valid signature mandatory —
// verifies it over the body, every byte of p before the blob.
func openSignature(r *transport.Reader, p, serverPub, label []byte, what string) ([]byte, error) {
	sg := r.Blob(maxHandshakeSig)
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("core: %s: %w", what, err)
	}
	body := p[:len(p)-2-len(sg)]
	if len(serverPub) > 0 && !sig.Verify(serverPub, sigPayload(label, body), sg) {
		return nil, fmt.Errorf("core: %s signature invalid or missing", what)
	}
	return sg, nil
}

// encodeRoundOffer encodes and (optionally) signs an offer.
func encodeRoundOffer(o RoundOffer, signer *sig.Signer) []byte {
	w := transport.NewVersionedWriter(codecMagic, tagRoundOffer, handshakeVersion, 8+1+1+8+32+8+2+64)
	w.Uint64(o.Round)
	w.Raw(byte(o.Protocol), flagByte(o.Resume))
	w.Uint64(o.Ratchet)
	w.Raw(o.RosterHash[:]...)
	w.Uint64(o.NoiseEpoch)
	return signFrame(w, signer, offerSigLabel)
}

// decodeRoundOffer decodes an offer; serverPub, when non-empty, makes a
// valid signature mandatory.
func decodeRoundOffer(p []byte, serverPub []byte) (RoundOffer, error) {
	r := transport.NewVersionedReader(p, codecMagic, tagRoundOffer, handshakeVersion)
	o := RoundOffer{Round: r.Uint64(), Protocol: Protocol(r.Byte())}
	if err := wireProtocol(o.Protocol); err != nil {
		r.Fail(err)
	}
	o.Resume = readFlags(r, 1)&1 != 0
	o.Ratchet = r.Uint64()
	copy(o.RosterHash[:], r.Raw(32))
	o.NoiseEpoch = r.Uint64()
	sg, err := openSignature(r, p, serverPub, offerSigLabel, "round offer")
	if err != nil {
		return RoundOffer{}, err
	}
	o.Signature = sg
	return o, nil
}

// encodeRoundAck encodes an ack (unsigned: the transport authenticates the
// sender, exactly as it does for every round-stage upload).
func encodeRoundAck(a RoundAck) []byte {
	w := transport.NewVersionedWriter(codecMagic, tagRoundAck, handshakeVersion, 8+8+1+8+32)
	w.Uint64(a.Round)
	w.Uint64(a.From)
	w.Raw(flagByte(a.CanResume, a.Tainted, a.HasHash))
	w.Uint64(a.NextRatchet)
	w.Raw(a.StateHash[:]...)
	out, _ := w.Done() // no capped field: cannot fail
	return out
}

// decodeRoundAck decodes an ack.
func decodeRoundAck(p []byte) (RoundAck, error) {
	r := transport.NewVersionedReader(p, codecMagic, tagRoundAck, handshakeVersion)
	a := RoundAck{Round: r.Uint64(), From: r.Uint64()}
	flags := readFlags(r, 7)
	a.CanResume, a.Tainted, a.HasHash = flags&1 != 0, flags&2 != 0, flags&4 != 0
	a.NextRatchet = r.Uint64()
	copy(a.StateHash[:], r.Raw(32))
	if err := r.Done(); err != nil {
		return RoundAck{}, fmt.Errorf("core: round ack: %w", err)
	}
	return a, nil
}

// encodeRoundCommit encodes and (optionally) signs a commit. The divergent
// section ([count:2][ids count×8]) sits inside the signed body, so a
// network adversary cannot edit the subset without breaking the signature.
func encodeRoundCommit(c RoundCommit, signer *sig.Signer) []byte {
	w := transport.NewVersionedWriter(codecMagic, tagRoundCommit, handshakeVersion, 8+1+8+8+2+len(c.Divergent)*8+2+64)
	w.Uint64(c.Round)
	w.Raw(flagByte(c.Resume, len(c.Divergent) > 0)) // bit 1: partial resume
	w.Uint64(c.Ratchet)
	w.Uint64(c.NoiseEpoch)
	w.Uint16(uint16(len(c.Divergent)))
	for _, id := range c.Divergent {
		w.Uint64(id)
	}
	return signFrame(w, signer, commitSigLabel)
}

// decodeRoundCommit decodes a commit; serverPub, when non-empty, makes a
// valid signature mandatory.
func decodeRoundCommit(p []byte, serverPub []byte) (RoundCommit, error) {
	r := transport.NewVersionedReader(p, codecMagic, tagRoundCommit, handshakeVersion)
	c := RoundCommit{Round: r.Uint64()}
	flags := readFlags(r, 3)
	c.Resume = flags&1 != 0
	partial := flags&2 != 0
	c.Ratchet = r.Uint64()
	c.NoiseEpoch = r.Uint64()
	count := int(r.Uint16())
	// Raw proves the payload carries count ids before they are allocated.
	if raw := r.Raw(8 * count); raw != nil {
		c.Divergent, _, _ = transport.DecodeUint64sLE(raw, count)
	}
	if partial != (count > 0) || (partial && !c.Resume) {
		r.Fail(fmt.Errorf("divergent section inconsistent with flags"))
	}
	for i := 1; i < len(c.Divergent); i++ {
		if c.Divergent[i] <= c.Divergent[i-1] {
			r.Fail(fmt.Errorf("divergent ids not strictly ascending at %d", c.Divergent[i]))
		}
	}
	sg, err := openSignature(r, p, serverPub, commitSigLabel, "round commit")
	if err != nil {
		return RoundCommit{}, err
	}
	c.Signature = sg
	return c, nil
}

// HandshakeConfig configures the server side of one pre-round handshake.
type HandshakeConfig struct {
	Round uint64
	// Protocol is the substrate the round runs; it must be one the wire
	// runs (ErrProtocolNotOnWire).
	Protocol  Protocol
	ClientIDs []uint64
	// KeyRounds bounds how many consecutive rounds one key generation may
	// serve (the one cross-round bound; in process a generation serves one
	// round): resume is proposed only while the ratchet high-water mark is
	// below it. Values ≤ 1 disable cross-round resume — every handshake
	// re-keys, the conservative default of the session threat model
	// (ARCHITECTURE.md).
	KeyRounds int
	// Deadline bounds ack collection; ≤ 0 defaults to engine.DefaultDeadline.
	Deadline time.Duration
	// Signer, when non-nil, signs offers and commits (the deployment
	// distributes the verification key to clients out of band).
	Signer *sig.Signer
	// NoiseEpoch is the noise draw-sequence version the server announces
	// for the round (must be ≤ xnoise.MaxNoiseEpoch); clients echo-verify
	// it from the commit and run the round's samplers under it.
	NoiseEpoch uint64
}

// Handshake is the negotiated outcome both sides run the round under.
type Handshake struct {
	Round    uint64
	Protocol Protocol
	// Resume: the round reuses the live key generation at the Ratchet step;
	// false: clean re-key, fresh advertise stage for everyone.
	Resume  bool
	Ratchet uint64
	// Divergent, non-empty only when Resume is true, makes the resume
	// partial: these members re-advertise fresh keys in the coming round
	// (the round driver collects advertise from exactly this subset and
	// broadcasts the merged roster), everyone else skips advertise.
	Divergent []uint64
	// NoiseEpoch is the committed noise draw-sequence version; the round's
	// secagg.Config.NoiseEpoch must be set to it on both sides.
	NoiseEpoch uint64
}

// Partial reports whether the outcome is a partial resume.
func (h Handshake) Partial() bool { return h.Resume && len(h.Divergent) > 0 }

// DivergentContains reports whether id is in the divergent subset.
func (h Handshake) DivergentContains(id uint64) bool {
	for _, d := range h.Divergent {
		if d == id {
			return true
		}
	}
	return false
}

// RunHandshakeServer negotiates one round's resume-or-rekey decision with
// every client and returns the outcome the caller must run the round
// under (WireServerConfig.Resume, Config.KeyRatchet and Round).
//
// eng must be the same engine (same transport fan-in) the round itself
// will collect through — two concurrent fan-ins on one connection would
// steal each other's frames — and its source context must span both the
// handshake and the round. On a re-key outcome the server session has
// already been Rekey()ed when this returns.
func RunHandshakeServer(ctx context.Context, cfg HandshakeConfig, sess *secagg.ServerSession,
	eng *engine.Engine, conn transport.ServerConn) (Handshake, error) {

	if sess == nil {
		return Handshake{}, fmt.Errorf("core: handshake requires a server session")
	}
	if err := wireProtocol(cfg.Protocol); err != nil {
		return Handshake{}, err
	}
	if cfg.NoiseEpoch > xnoise.MaxNoiseEpoch {
		return Handshake{}, fmt.Errorf("core: handshake noise epoch %d beyond max %d",
			cfg.NoiseEpoch, xnoise.MaxNoiseEpoch)
	}
	deadline := cfg.Deadline
	if deadline <= 0 {
		deadline = engine.DefaultDeadline
	}
	ids := cfg.ClientIDs

	// Wait for each expected client to announce readiness on its current
	// connection before offering (see the hello note above). Absentees at
	// the deadline are simply offered into the void; their missing acks
	// downgrade the round to a re-key and the round thresholds take it
	// from there.
	_, err := eng.Collect(ctx, engine.Stage{
		Name: "handshake-hello", Tag: engine.TagRoundHello, Expect: ids, Deadline: deadline,
		Apply: func(uint64, any) error { return nil },
	})
	if err != nil {
		return Handshake{}, err
	}

	// Propose resume only from locally sufficient state: a roster cached
	// for exactly this client set, with ratchet budget left. Taint and
	// partial coverage no longer veto the proposal — the divergent subset
	// absorbs them after the acks.
	ratchet := sess.NextRatchet()
	hash, haveRoster := sess.StateHashFor(ids)
	propose := haveRoster && cfg.KeyRounds > 1 && ratchet < uint64(cfg.KeyRounds)
	offer := RoundOffer{Round: cfg.Round, Protocol: cfg.Protocol, NoiseEpoch: cfg.NoiseEpoch}
	if propose {
		offer.Resume = true
		offer.Ratchet = ratchet
		offer.RosterHash = hash
	}
	engine.Broadcast(conn, engine.TagRoundOffer, encodeRoundOffer(offer, cfg.Signer), ids...)

	// Collect acks. Malformed or stale-round acks become re-key votes
	// rather than aborts: the handshake's failure mode is always "re-key",
	// never "wedge the round".
	acks := make(map[uint64]RoundAck, len(ids))
	_, err = eng.Collect(ctx, engine.Stage{
		Name: "handshake-ack", Tag: engine.TagRoundAck, Expect: ids, Deadline: deadline,
		Decode: func(m engine.Msg) (any, error) {
			a, err := decodeRoundAck(m.Body.([]byte))
			if err != nil {
				return RoundAck{From: m.From}, nil // malformed: counts as a refusal
			}
			return a, nil
		},
		Apply: func(from uint64, body any) error {
			a := body.(RoundAck)
			a.From = from // transport-verified sender wins over the payload claim
			acks[from] = a
			return nil
		},
	})
	if err != nil {
		return Handshake{}, err
	}

	// Partition the roster: a member diverges when its ack is missing,
	// stale, refusing, tainted, or reports different state, when the server
	// reconstructed its key material (TaintedMembers), or when the cached
	// roster never covered it (MissingMembers). With enough cached members
	// left the commit downgrades to a partial resume over exactly that
	// subset; otherwise to a full re-key.
	resume := propose
	var div []uint64
	if propose {
		divSet := make(map[uint64]bool)
		for _, id := range sess.MissingMembers(ids) {
			divSet[id] = true
		}
		inRound := make(map[uint64]bool, len(ids))
		for _, id := range ids {
			inRound[id] = true
		}
		for _, id := range sess.TaintedMembers() {
			if inRound[id] {
				divSet[id] = true
			}
		}
		for _, id := range ids {
			a, ok := acks[id]
			if !ok || a.Round != cfg.Round || !a.CanResume || a.Tainted ||
				!a.HasHash || a.StateHash != hash || a.NextRatchet != ratchet {
				divSet[id] = true
			}
		}
		switch {
		case len(divSet) == 0:
			// Unanimous: full resume, advertise skipped entirely.
		case len(ids)-len(divSet) >= 2:
			// Partial: at least one cached edge survives between the
			// non-divergent members, so keeping the cache pays for the
			// partial advertise stage.
			div = make([]uint64, 0, len(divSet))
			for _, id := range ids {
				if divSet[id] {
					div = append(div, id)
				}
			}
		default:
			resume = false
		}
	}
	if resume {
		sess.RekeyEdges(div)
		sess.MarkRatchetUsed(ratchet)
	} else {
		sess.Rekey()
		ratchet = 0
		// The coming round consumes step 0 of the fresh generation; burn it
		// now so the next handshake proposes step 1, never a reuse of the
		// derivation point the re-keyed round is about to run at.
		sess.MarkRatchetUsed(0)
	}
	commit := RoundCommit{Round: cfg.Round, Resume: resume, Ratchet: ratchet,
		NoiseEpoch: cfg.NoiseEpoch, Divergent: div}
	engine.Broadcast(conn, engine.TagRoundCommit, encodeRoundCommit(commit, cfg.Signer), ids...)
	return Handshake{Round: cfg.Round, Protocol: cfg.Protocol, Resume: resume, Ratchet: ratchet,
		Divergent: div, NoiseEpoch: cfg.NoiseEpoch}, nil
}

// ClientHandshakeConfig configures the client side of one pre-round
// handshake.
type ClientHandshakeConfig struct {
	ID uint64
	// Protocol is the substrate this client is configured for; an offer
	// for a different substrate aborts (config desynchronization). It must
	// be one the wire runs (ErrProtocolNotOnWire).
	Protocol Protocol
	// ServerPub, when non-empty, is the server's Ed25519 verification key:
	// unsigned or mis-signed offers and commits are rejected.
	ServerPub []byte
	// Rand supplies key-generation randomness for a re-key outcome; nil
	// defaults to crypto/rand.
	Rand io.Reader
}

// RunHandshakeClient answers one pre-round handshake and prepares the
// session for the committed outcome: on resume it burns the ratchet step;
// on re-key it regenerates the session's key pairs. In both cases the
// session is left tainted — the round is now in flight — and the round
// driver clears the taint on clean completion, so a crash between
// handshake and completion surfaces as taint at the next handshake.
func RunHandshakeClient(ctx context.Context, cfg ClientHandshakeConfig, sess *secagg.Session,
	conn transport.ClientConn) (Handshake, error) {

	if sess == nil {
		return Handshake{}, fmt.Errorf("core: handshake requires a client session")
	}
	if err := wireProtocol(cfg.Protocol); err != nil {
		return Handshake{}, err
	}
	rand := cfg.Rand
	if rand == nil {
		rand = crand.Reader
	}

	// Announce readiness on this connection; the server offers only after
	// every expected client checked in (or its deadline expired).
	hello := []byte{codecMagic, tagRoundHello, handshakeVersion}
	if err := engine.Uplink(conn, engine.TagRoundHello, hello); err != nil {
		return Handshake{}, err
	}

	offer, err := engine.Await(ctx, conn, engine.TagRoundOffer, func(p []byte) (RoundOffer, error) {
		return decodeRoundOffer(p, cfg.ServerPub)
	})
	if err != nil {
		return Handshake{}, err
	}
	if offer.Protocol != cfg.Protocol {
		return Handshake{}, fmt.Errorf("core: round offer for substrate %v, client runs %v",
			offer.Protocol, cfg.Protocol)
	}
	if offer.NoiseEpoch > xnoise.MaxNoiseEpoch {
		// An unknown epoch means this build cannot regenerate the round's
		// noise sequence; running anyway would silently break removal.
		return Handshake{}, fmt.Errorf("core: round offer noise epoch %d beyond this build's max %d",
			offer.NoiseEpoch, xnoise.MaxNoiseEpoch)
	}

	hash, haveHash := sess.StateHash()
	canResume := offer.Resume && haveHash && hash == offer.RosterHash &&
		!sess.Tainted() && sess.NextRatchet() == offer.Ratchet
	ack := RoundAck{
		Round:       offer.Round,
		From:        cfg.ID,
		CanResume:   canResume,
		Tainted:     sess.Tainted(),
		HasHash:     haveHash,
		StateHash:   hash,
		NextRatchet: sess.NextRatchet(),
	}
	if err := engine.Uplink(conn, engine.TagRoundAck, encodeRoundAck(ack)); err != nil {
		return Handshake{}, err
	}

	commit, err := engine.Await(ctx, conn, engine.TagRoundCommit, func(p []byte) (RoundCommit, error) {
		return decodeRoundCommit(p, cfg.ServerPub)
	})
	if err != nil {
		return Handshake{}, err
	}
	if commit.Round != offer.Round {
		return Handshake{}, fmt.Errorf("core: commit for round %d after offer for round %d",
			commit.Round, offer.Round)
	}
	if commit.NoiseEpoch != offer.NoiseEpoch {
		return Handshake{}, fmt.Errorf("core: commit noise epoch %d contradicts offer epoch %d",
			commit.NoiseEpoch, offer.NoiseEpoch)
	}
	hs := Handshake{Round: offer.Round, Protocol: offer.Protocol,
		Resume: commit.Resume, Ratchet: commit.Ratchet, Divergent: commit.Divergent,
		NoiseEpoch: commit.NoiseEpoch}
	switch {
	case commit.Resume && hs.DivergentContains(cfg.ID):
		// This client is in the divergent subset: its own state is unusable
		// (or the server's view of it is), so it re-keys fully and will
		// re-advertise in the coming round while the rest of the roster
		// keeps its cache. The fresh generation inherits the committed
		// ratchet step so its derivations line up with every peer's.
		if err := sess.Rekey(rand); err != nil {
			return Handshake{}, err
		}
		sess.MarkRatchetUsed(commit.Ratchet)
	case commit.Resume:
		// The server may only commit resume after our own CanResume ack; a
		// commit we cannot follow is a protocol violation (or a replay),
		// not something to run a round on.
		if !canResume {
			return Handshake{}, fmt.Errorf("core: server committed resume this client cannot follow")
		}
		// Drop exactly the divergent members' edges (no-op on a full
		// resume): their fresh advertisements arrive with the merged roster
		// and the edges re-agree on first use.
		sess.RekeyEdges(commit.Divergent)
		sess.MarkRatchetUsed(commit.Ratchet)
	default:
		if err := sess.Rekey(rand); err != nil {
			return Handshake{}, err
		}
		// Mirror the server: the coming round consumes step 0 of the fresh
		// generation.
		sess.MarkRatchetUsed(0)
	}
	// Round in flight: cleared by the round driver on clean completion.
	sess.Taint()
	return hs, nil
}
