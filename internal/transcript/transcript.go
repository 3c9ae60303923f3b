// Package transcript is the integrity layer clients can audit: a
// per-round Merkle commitment over everything the server claims the round
// was made of — the sealed roster (advertise keys), and the digest of
// every masked input it aggregated — chained to the previous round's
// root and signed with the server's handshake key (internal/sig).
//
// The paper's server is honest-but-curious; a production deployment wants
// clients to *verify* they aggregated into the round they think they did.
// The transcript gives the three opaque claims a client otherwise takes
// on faith a checkable definition:
//
//   - the roster: the handshake's RosterHash is the transcript's
//     roster-subtree root (RosterRoot), so "we resume on the same roster"
//     and "my advertise keys are in the round" are now the same Merkle
//     statement — an inclusion proof against the hash the client already
//     pinned at handshake time;
//   - its own contribution: the server commits SHA-256 digests of the
//     masked inputs it folded (Digest), and returns each survivor an
//     inclusion proof, so a client knows its upload — not a substitute —
//     is in the aggregate it was shown;
//   - history: each round root hashes over the previous round's root
//     (Chain), so auditing n rounds costs n constant-size checks and a
//     server cannot rewrite a past round without breaking every root
//     after it.
//
// One tier type, two uses. A tier round is one Commitment — round, prev,
// one (root, leaf count) per subtree, signature — built by one builder,
// proved by one Proof (an audit path per subtree), checked by one verify
// routine and audited on one chain. The round tier commits two subtrees,
// roster and inputs; the sharded topology's combiner tier is the same
// code over one subtree, the contributing shards' round roots
// (Recorder.BuildCombineRound), so one client proof spans both tiers —
// masked-input digest → shard root → combiner root. Everything rides the
// existing frame/codec machinery (the 0x60 frame family, codec.go) rather
// than a side channel, per the cheap-and-uniform metadata lesson; see
// ARCHITECTURE.md ("Integrity layer") and PROTOCOL.md for the wire
// layouts.
//
// The tree is the RFC 6962 shape: leaves are domain-separated from
// interior nodes (0x00/0x01 prefixes), and an n-leaf tree splits at the
// largest power of two strictly below n, so inclusion proofs are
// log₂(n)×32 bytes.
package transcript

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/sig"
	"repro/internal/transport"
)

// sigLabel domain-separates the root signature, the same pattern as the
// handshake signature labels in core.
var sigLabel = []byte("dordis/transcript/sig/v1|")

// A tier is one level of the audit: the versioned label its root binds and
// the subtrees it commits, by name, in commitment order. Everything else —
// commitment, proof, builder, verifier, chain, codec — is shared.
type tier struct {
	label    []byte
	subtrees []string
}

var (
	// roundTier commits a round's roster and the masked inputs it folded.
	roundTier = &tier{[]byte("dordis/transcript/round/v1"), []string{"roster", "input"}}
	// combineTier commits the contributing shards' round roots.
	combineTier = &tier{[]byte("dordis/transcript/combine/v1"), []string{"shard"}}
)

// Leaf kinds: the byte after a leaf's 0x00 prefix.
const (
	leafKindRoster = 'R'
	leafKindInput  = 'I'
	leafKindShard  = 'S'
)

// RosterEntry is one member's stage-0 advertisement as the transcript
// commits it: identity plus the advertised public keys. For substrates
// with a single key (LightSecAgg), MaskPub is empty; the leaf encoding
// length-prefixes both keys, so entries never alias across shapes.
type RosterEntry struct {
	ID        uint64
	CipherPub []byte
	MaskPub   []byte
}

// InputDigest is one survivor's committed contribution: the digest of the
// masked input the server folded into the aggregate.
type InputDigest struct {
	ID     uint64
	Digest [32]byte
}

// ShardRoot is one shard's signed round root as the combiner tier commits
// it: the shard id and the shard transcript's Root().
type ShardRoot struct {
	Shard uint64
	Root  [32]byte
}

// maskedLabel domain-separates the masked-input digest.
const maskedLabel = "dordis/transcript/masked/v1"

// Digest is the canonical masked-input digest both sides compute: SHA-256
// over the little-endian bytes of the masked vector. Client (at upload)
// and server (at AddMasked) must agree on it byte-for-byte; it is the
// leaf preimage the inclusion proof anchors.
func Digest(xs []uint64) [32]byte {
	h := sha256.New()
	h.Write([]byte(maskedLabel))
	_ = transport.WriteUint64sLE(h, xs) // a hash never fails a Write
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// DigestLE is Digest of the vector whose little-endian wire bytes are b —
// what the server holds when it folds a masked input from its frame.
func DigestLE(b []byte) [32]byte {
	h := sha256.New()
	h.Write([]byte(maskedLabel))
	h.Write(b)
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// leafHash is every leaf of every tier: 0x00 ‖ kind ‖ id ‖ payload.
func leafHash(kind byte, id uint64, payload ...[]byte) [32]byte {
	h := sha256.New()
	var b [10]byte
	b[1] = kind
	binary.LittleEndian.PutUint64(b[2:], id)
	h.Write(b[:])
	for _, p := range payload {
		h.Write(p)
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// rosterLeaf's payload length-prefixes both keys.
func rosterLeaf(e RosterEntry) [32]byte {
	var lc, lm [2]byte
	binary.LittleEndian.PutUint16(lc[:], uint16(len(e.CipherPub)))
	binary.LittleEndian.PutUint16(lm[:], uint16(len(e.MaskPub)))
	return leafHash(leafKindRoster, e.ID, lc[:], e.CipherPub, lm[:], e.MaskPub)
}

func inputLeaf(id uint64, digest [32]byte) [32]byte {
	return leafHash(leafKindInput, id, digest[:])
}

func shardLeaf(shard uint64, root [32]byte) [32]byte {
	return leafHash(leafKindShard, shard, root[:])
}

func nodeHash(l, r [32]byte) [32]byte {
	h := sha256.New()
	h.Write([]byte{0x01})
	h.Write(l[:])
	h.Write(r[:])
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// emptyRoot is the root of a zero-leaf subtree (e.g. a round the
// transcript recorded no inputs for).
func emptyRoot() [32]byte {
	return sha256.Sum256([]byte("dordis/transcript/empty/v1"))
}

// splitPoint returns the largest power of two strictly less than n
// (n ≥ 2) — the RFC 6962 subtree split.
func splitPoint(n int) int {
	k := 1
	for k<<1 < n {
		k <<= 1
	}
	return k
}

// treeRoot folds hashed leaves into the subtree root.
func treeRoot(leaves [][32]byte) [32]byte {
	switch len(leaves) {
	case 0:
		return emptyRoot()
	case 1:
		return leaves[0]
	}
	k := splitPoint(len(leaves))
	return nodeHash(treeRoot(leaves[:k]), treeRoot(leaves[k:]))
}

// proofPath returns the audit path for leaf i: the sibling subtree roots
// from the leaf upward.
func proofPath(leaves [][32]byte, i int) [][32]byte {
	if len(leaves) <= 1 {
		return nil
	}
	k := splitPoint(len(leaves))
	if i < k {
		return append(proofPath(leaves[:k], i), treeRoot(leaves[k:]))
	}
	return append(proofPath(leaves[k:], i-k), treeRoot(leaves[:k]))
}

// rootFromPath recomputes the subtree root from a leaf, its index, the
// subtree size, and the audit path — the verifier's mirror of proofPath.
func rootFromPath(leaf [32]byte, index, n int, path [][32]byte) ([32]byte, error) {
	if n < 1 || index < 0 || index >= n {
		return [32]byte{}, fmt.Errorf("transcript: leaf index %d outside tree of %d", index, n)
	}
	if n == 1 {
		if len(path) != 0 {
			return [32]byte{}, fmt.Errorf("transcript: %d path nodes for a single-leaf tree", len(path))
		}
		return leaf, nil
	}
	if len(path) == 0 {
		return [32]byte{}, fmt.Errorf("transcript: audit path exhausted at subtree of %d", n)
	}
	k := splitPoint(n)
	sibling := path[len(path)-1]
	if index < k {
		sub, err := rootFromPath(leaf, index, k, path[:len(path)-1])
		if err != nil {
			return [32]byte{}, err
		}
		return nodeHash(sub, sibling), nil
	}
	sub, err := rootFromPath(leaf, index-k, n-k, path[:len(path)-1])
	if err != nil {
		return [32]byte{}, err
	}
	return nodeHash(sibling, sub), nil
}

// RosterRoot is the Merkle root of the roster subtree: one leaf per
// member, in the given order (drivers pass sealed rosters, which are
// sorted by id). This is the handshake's roster hash — the re-key
// handshake's shared-state check and the transcript's roster commitment
// are the same value, which is what makes the opaque hash clients pin at
// handshake time client-checkable after the round.
func RosterRoot(entries []RosterEntry) [32]byte {
	leaves := make([][32]byte, len(entries))
	for i, e := range entries {
		leaves[i] = rosterLeaf(e)
	}
	return treeRoot(leaves)
}

// Commitment is one tier round's signed header: everything a verifier
// needs to recompute the root from a proof. Prev chains to the previous
// round's Root (zero for the first recorded round); Subtrees holds one
// (root, leaf count) per subtree the tier commits — roster then inputs at
// the round tier, shard roots at the combiner tier.
type Commitment struct {
	tier     *tier
	Round    uint64
	Prev     [32]byte
	Subtrees []Subtree
	// Signature is the aggregator's Ed25519 signature over sigLabel‖Root();
	// empty in semi-honest deployments (mirroring the handshake).
	Signature []byte
}

// Subtree is one committed Merkle subtree: its root and leaf count.
type Subtree struct {
	Root  [32]byte
	Count uint32
}

// Root recomputes the root the signature covers: a hash over the tier's
// label, the round number, the previous root, and every subtree's root
// and leaf count.
func (c *Commitment) Root() [32]byte {
	h := sha256.New()
	h.Write(c.tier.label)
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], c.Round)
	h.Write(b[:])
	h.Write(c.Prev[:])
	for _, s := range c.Subtrees {
		h.Write(s.Root[:])
		binary.LittleEndian.PutUint32(b[:4], s.Count)
		h.Write(b[:4])
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// Proof is one member's inclusion proof against a Commitment, one audit
// path per subtree: a client's roster and masked-input leaves at the round
// tier, a shard's root at the combiner tier (where ID is the shard).
type Proof struct {
	Round uint64
	ID    uint64
	Paths []Path
}

// Path is one leaf's index in its subtree and the audit path from it.
type Path struct {
	Index uint32
	Nodes [][32]byte
}

// Transcript is one built tier round: the signed commitment plus the leaf
// sets needed to issue proofs. Only the building side (the aggregator)
// holds a Transcript; verifiers work from Commitment+Proof.
type Transcript struct {
	Commitment Commitment
	sets       []leafSet
}

// leafSet is one subtree's leaves in ascending-id order.
type leafSet struct {
	ids    []uint64
	leaves [][32]byte
}

// leaf is one member's hashed leaf before the builder orders it.
type leaf struct {
	id   uint64
	hash [32]byte
}

// build is the one builder. It commits each leaf set in ascending-id
// order regardless of input order, refuses duplicate ids and — the first
// set being the tier's membership — any later leaf whose id is not a
// member (a round commits inputs only from its roster), then signs the
// root when signer is non-nil. prev is the previous round's root.
func (t *tier) build(round uint64, prev [32]byte, signer *sig.Signer, sets [][]leaf) (*Transcript, error) {
	tr := &Transcript{
		Commitment: Commitment{tier: t, Round: round, Prev: prev, Subtrees: make([]Subtree, len(sets))},
		sets:       make([]leafSet, len(sets)),
	}
	for i, set := range sets {
		slices.SortFunc(set, func(a, b leaf) int { return cmp.Compare(a.id, b.id) })
		s := leafSet{ids: make([]uint64, len(set)), leaves: make([][32]byte, len(set))}
		for j, l := range set {
			if j > 0 && l.id == set[j-1].id {
				return nil, fmt.Errorf("transcript: duplicate %s leaf %d", t.subtrees[i], l.id)
			}
			if i > 0 {
				if _, member := slices.BinarySearch(tr.sets[0].ids, l.id); !member {
					return nil, fmt.Errorf("transcript: %s leaf %d outside the %s", t.subtrees[i], l.id, t.subtrees[0])
				}
			}
			s.ids[j], s.leaves[j] = l.id, l.hash
		}
		tr.sets[i] = s
		tr.Commitment.Subtrees[i] = Subtree{Root: treeRoot(s.leaves), Count: uint32(len(set))}
	}
	if signer != nil {
		tr.Commitment.Signature = signer.Sign(sigPayload(tr.Root()))
	}
	return tr, nil
}

// roundSets is the round tier's leaf sets: roster, then inputs.
func roundSets(roster []RosterEntry, inputs []InputDigest) [][]leaf {
	rs := make([]leaf, len(roster))
	for i, e := range roster {
		rs[i] = leaf{e.ID, rosterLeaf(e)}
	}
	is := make([]leaf, len(inputs))
	for i, d := range inputs {
		is[i] = leaf{d.ID, inputLeaf(d.ID, d.Digest)}
	}
	return [][]leaf{rs, is}
}

// combineSets is the combiner tier's one leaf set: the shard roots.
func combineSets(shards []ShardRoot) [][]leaf {
	set := make([]leaf, len(shards))
	for i, s := range shards {
		set[i] = leaf{s.Shard, shardLeaf(s.Shard, s.Root)}
	}
	return [][]leaf{set}
}

// Build constructs one round's transcript over its roster and input
// digests (see build for the ordering and membership rules); signer, when
// non-nil, signs the root.
func Build(round uint64, prev [32]byte, roster []RosterEntry, inputs []InputDigest,
	signer *sig.Signer) (*Transcript, error) {
	return roundTier.build(round, prev, signer, roundSets(roster, inputs))
}

// Root returns the round root (the chained, signed value).
func (t *Transcript) Root() [32]byte { return t.Commitment.Root() }

// ProofFor issues id's inclusion proof: its audit path in every subtree.
// The id must hold a leaf in each — at the round tier a roster entry and
// an input digest (dropped clients have no contribution to prove).
func (t *Transcript) ProofFor(id uint64) (*Proof, error) {
	p := &Proof{Round: t.Commitment.Round, ID: id, Paths: make([]Path, len(t.sets))}
	for i, s := range t.sets {
		j, ok := slices.BinarySearch(s.ids, id)
		if !ok {
			return nil, fmt.Errorf("transcript: no %s leaf for %d", t.Commitment.tier.subtrees[i], id)
		}
		p.Paths[i] = Path{Index: uint32(j), Nodes: proofPath(s.leaves, j)}
	}
	return p, nil
}

func sigPayload(root [32]byte) []byte {
	out := make([]byte, 0, len(sigLabel)+32)
	out = append(out, sigLabel...)
	return append(out, root[:]...)
}

// Named verification errors — the tamper matrix pins that every
// single-byte mutation of leaf, path, root material, or signature lands
// on one of these (or a decode error upstream).
var (
	ErrBadSignature  = errors.New("transcript: root signature invalid or missing")
	ErrProofMismatch = errors.New("transcript: inclusion proof does not reach the committed root")
	ErrRoundMismatch = errors.New("transcript: proof round does not match the commitment")
	ErrChainBroken   = errors.New("transcript: round root does not chain to the previous root")
	ErrChainNotNewer = errors.New("transcript: round does not advance the chain")
	ErrWrongIdentity = errors.New("transcript: proof is not for this client")
)

// verify is the one verify routine: the root signature under pub (an
// empty pub skips it: semi-honest deployments, mirroring the handshake's
// unsigned mode), then the proof's round, then leaves[i]'s inclusion in
// subtree i for every subtree.
func (c *Commitment) verify(p *Proof, pub []byte, leaves ...[32]byte) error {
	if len(pub) > 0 && !sig.Verify(pub, sigPayload(c.Root()), c.Signature) {
		return ErrBadSignature
	}
	if p.Round != c.Round {
		return fmt.Errorf("%w: proof round %d, commitment round %d", ErrRoundMismatch, p.Round, c.Round)
	}
	if len(p.Paths) != len(c.Subtrees) || len(leaves) != len(c.Subtrees) {
		return fmt.Errorf("%w: %d paths for %d subtrees", ErrProofMismatch, len(p.Paths), len(c.Subtrees))
	}
	for i, s := range c.Subtrees {
		name := c.tier.subtrees[i]
		got, err := rootFromPath(leaves[i], int(p.Paths[i].Index), int(s.Count), p.Paths[i].Nodes)
		if err != nil {
			return fmt.Errorf("%w: %s: %v", ErrProofMismatch, name, err)
		}
		if got != s.Root {
			return fmt.Errorf("%w: %s subtree", ErrProofMismatch, name)
		}
	}
	return nil
}

// Verify is the client-side check for one round-tier commitment: the
// proof is the client's own, the signature verifies under serverPub (when
// pinned), and the client's roster entry and masked-input digest are
// included under their subtree roots. It returns nil only when every
// check passes.
func Verify(c *Commitment, p *Proof, self RosterEntry, digest [32]byte, serverPub []byte) error {
	if p.ID != self.ID {
		return fmt.Errorf("%w: proof for %d, client is %d", ErrWrongIdentity, p.ID, self.ID)
	}
	return c.verify(p, serverPub, rosterLeaf(self), inputLeaf(self.ID, digest))
}

// Chain tracks a root chain tip — the server side uses it through
// Recorder to chain successive rounds, the client side through the
// auditors to audit them. The zero Chain has no tip (first round chains
// from zero).
type Chain struct {
	round uint64
	tip   [32]byte
	have  bool
}

// Tip returns the last recorded root and whether one exists.
func (c *Chain) Tip() ([32]byte, bool) { return c.tip, c.have }

// Adopt unconditionally records (round, root) as the chain tip. It is
// the trust-on-first-audit bootstrap for clients joining mid-stream: a
// client that was not present for earlier rounds cannot know the
// previous root, so its auditor pins the chain from the first round it
// verifies onward. Servers never Adopt — the Recorder always Extends.
func (c *Chain) Adopt(round uint64, root [32]byte) {
	c.round, c.tip, c.have = round, root, true
}

// Extend verifies that (round, prev, root) continues the chain — prev
// must equal the current tip (zero when no tip) and round must advance —
// then records root as the new tip.
func (c *Chain) Extend(round uint64, prev, root [32]byte) error {
	var wantPrev [32]byte
	if c.have {
		wantPrev = c.tip
		if round <= c.round {
			return fmt.Errorf("%w: round %d after round %d", ErrChainNotNewer, round, c.round)
		}
	}
	if prev != wantPrev {
		return fmt.Errorf("%w: round %d", ErrChainBroken, round)
	}
	c.round, c.tip, c.have = round, root, true
	return nil
}

// chainVersion versions a marshalled chain, a frame of the 0xDD transcript
// codec family (see codec.go).
const chainVersion = 1

// MarshalBinary serializes the chain tip (for server persistence across
// restarts — the chain must survive so the next round's Prev links to the
// root committed before the crash).
func (c *Chain) MarshalBinary() ([]byte, error) {
	w := newFrame(tagChain, chainVersion, 8+32+1)
	w.Uint64(c.round)
	w.Raw(c.tip[:]...)
	if c.have {
		w.Raw(1)
	} else {
		w.Raw(0)
	}
	return w.Done()
}

// UnmarshalChain restores a chain from MarshalBinary bytes.
func UnmarshalChain(p []byte) (*Chain, error) {
	r := openFrame(p, tagChain, chainVersion)
	c := &Chain{round: r.Uint64(), tip: readHash(r), have: r.Byte() != 0}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("transcript: chain blob: %w", err)
	}
	return c, nil
}

// Recorder is the server-side transcript state across rounds: the root
// chain plus the signing key. One Recorder per aggregator (flat server,
// shard aggregator, or combiner); it is safe for concurrent use, though
// drivers build at most one transcript at a time.
type Recorder struct {
	mu     sync.Mutex
	chain  Chain
	signer *sig.Signer
}

// NewRecorder builds a recorder; signer may be nil (unsigned transcripts,
// semi-honest mode).
func NewRecorder(signer *sig.Signer) *Recorder {
	return &Recorder{signer: signer}
}

// Tip returns the chain tip (the last committed round root).
func (r *Recorder) Tip() ([32]byte, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.chain.Tip()
}

// BuildRound builds, signs, and chains one round-tier transcript.
func (r *Recorder) BuildRound(round uint64, roster []RosterEntry, inputs []InputDigest) (*Transcript, error) {
	return r.build(roundTier, round, roundSets(roster, inputs))
}

// BuildCombineRound builds, signs, and chains one combiner-tier
// transcript over the contributing shards' round roots.
func (r *Recorder) BuildCombineRound(round uint64, shards []ShardRoot) (*Transcript, error) {
	return r.build(combineTier, round, combineSets(shards))
}

func (r *Recorder) build(t *tier, round uint64, sets [][]leaf) (*Transcript, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	prev, _ := r.chain.Tip()
	tr, err := t.build(round, prev, r.signer, sets)
	if err != nil {
		return nil, err
	}
	if err := r.chain.Extend(round, prev, tr.Root()); err != nil {
		return nil, err
	}
	return tr, nil
}

// MarshalBinary persists the recorder's chain (the signer is key
// material the deployment manages separately, exactly as the handshake
// signer is).
func (r *Recorder) MarshalBinary() ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.chain.MarshalBinary()
}

// UnmarshalRecorder restores a recorder from MarshalBinary bytes; signer
// re-attaches the signing key (nil keeps the transcripts unsigned).
func UnmarshalRecorder(p []byte, signer *sig.Signer) (*Recorder, error) {
	c, err := UnmarshalChain(p)
	if err != nil {
		return nil, err
	}
	return &Recorder{chain: *c, signer: signer}, nil
}

// RootRecord is one audited round in a client's history.
type RootRecord struct {
	Round uint64
	Root  [32]byte
}

// audit is the one audit chain both auditors keep: the pinned key (nil
// accepts unsigned transcripts, semi-honest deployments; never written
// after construction), the root chain, and the audit history.
type audit struct {
	pub     []byte
	mu      sync.Mutex
	chain   Chain
	history []RootRecord
}

// extend records a verified commitment: the first is adopted as the chain
// anchor (trust-on-first-audit: a client joining or rejoining mid-stream
// cannot know the prior root), every later one must extend the chain. A
// break leaves chain and history as they were.
func (a *audit) extend(c *Commitment) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	root := c.Root()
	if _, have := a.chain.Tip(); !have {
		a.chain.Adopt(c.Round, root)
	} else if err := a.chain.Extend(c.Round, c.Prev, root); err != nil {
		return err
	}
	a.history = append(a.history, RootRecord{Round: c.Round, Root: root})
	return nil
}

// History returns the audited (round, root) records in verification
// order — the client's cheap audit trail.
func (a *audit) History() []RootRecord {
	a.mu.Lock()
	defer a.mu.Unlock()
	return slices.Clone(a.history)
}

// Auditor audits the round tier against the pinned server key.
type Auditor struct{ audit }

// NewAuditor builds an auditor pinning serverPub (may be nil/empty).
func NewAuditor(serverPub []byte) *Auditor {
	return &Auditor{audit{pub: bytes.Clone(serverPub)}}
}

// VerifyRound runs the full client check for one round — Verify, then
// chain continuity — and records the root on success.
func (a *Auditor) VerifyRound(c *Commitment, p *Proof, self RosterEntry, digest [32]byte) error {
	if err := Verify(c, p, self, digest, a.pub); err != nil {
		return err
	}
	return a.extend(c)
}

// CombineAuditor audits the combiner tier against the pinned combiner
// key: the combiner is its own signer with its own root history, so
// clients of a sharded deployment keep two chains. A flat deployment
// pays nothing for it.
type CombineAuditor struct{ audit }

// NewCombineAuditor builds a combiner-tier auditor pinning combinerPub
// (may be nil/empty).
func NewCombineAuditor(combinerPub []byte) *CombineAuditor {
	return &CombineAuditor{audit{pub: bytes.Clone(combinerPub)}}
}

// VerifyTier checks one combiner-tier commitment against the shard root
// the client verified at the round tier — p proves shard p.ID's leaf —
// then extends the combiner chain exactly as Auditor.VerifyRound does.
func (a *CombineAuditor) VerifyTier(c *Commitment, p *Proof, shardRoot [32]byte) error {
	if err := c.verify(p, a.pub, shardLeaf(p.ID, shardRoot)); err != nil {
		return err
	}
	return a.extend(c)
}
