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
// The sharded topology composes: each shard's round root becomes a leaf
// of the root combiner's tree (ShardLeaf/BuildCombine), so one client
// proof spans both tiers — masked-input digest → shard root → combiner
// root. Everything rides the existing frame/codec machinery (the 0x60
// frame family, codec.go) rather than a side channel, per the
// cheap-and-uniform metadata lesson; see ARCHITECTURE.md ("Integrity
// layer") and PROTOCOL.md for the wire layouts.
//
// The tree is the RFC 6962 shape: leaves are domain-separated from
// interior nodes (0x00/0x01 prefixes), and an n-leaf tree splits at the
// largest power of two strictly below n, so inclusion proofs are
// log₂(n)×32 bytes.
package transcript

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/sig"
	"repro/internal/transport"
)

// Domain-separation labels. Leaves hash with a 0x00 prefix and a kind
// byte, interior nodes with 0x01, and the round/combine roots bind a
// versioned ASCII label — the same pattern as the handshake signature
// labels in core.
var (
	roundRootLabel   = []byte("dordis/transcript/round/v1")
	combineRootLabel = []byte("dordis/transcript/combine/v1")
	sigLabel         = []byte("dordis/transcript/sig/v1|")
)

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

func rosterLeaf(e RosterEntry) [32]byte {
	h := sha256.New()
	h.Write([]byte{0x00, leafKindRoster})
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], e.ID)
	h.Write(b[:])
	var l [2]byte
	binary.LittleEndian.PutUint16(l[:], uint16(len(e.CipherPub)))
	h.Write(l[:])
	h.Write(e.CipherPub)
	binary.LittleEndian.PutUint16(l[:], uint16(len(e.MaskPub)))
	h.Write(l[:])
	h.Write(e.MaskPub)
	var out [32]byte
	h.Sum(out[:0])
	return out
}

func inputLeaf(d InputDigest) [32]byte {
	h := sha256.New()
	h.Write([]byte{0x00, leafKindInput})
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], d.ID)
	h.Write(b[:])
	h.Write(d.Digest[:])
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// ShardLeaf is the combiner-tier leaf for one shard's round root. It is
// exported so a shard aggregator (or an auditor replaying a transcript)
// can recompute its own leaf without the combiner's tree.
func ShardLeaf(s ShardRoot) [32]byte {
	h := sha256.New()
	h.Write([]byte{0x00, leafKindShard})
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], s.Shard)
	h.Write(b[:])
	h.Write(s.Root[:])
	var out [32]byte
	h.Sum(out[:0])
	return out
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

// Commitment is one round's signed transcript header: everything a
// verifier needs to recompute the round root from a proof. Prev chains to
// the previous round's Root (zero for the first recorded round).
type Commitment struct {
	Round       uint64
	Prev        [32]byte
	RosterRoot  [32]byte
	RosterCount uint32
	InputRoot   [32]byte
	InputCount  uint32
	// Signature is the server's Ed25519 signature over sigLabel‖Root();
	// empty in semi-honest deployments (mirroring the handshake).
	Signature []byte
}

// Root recomputes the round root the signature covers: a hash over the
// label, round number, previous root, and both subtree commitments with
// their leaf counts.
func (c *Commitment) Root() [32]byte {
	h := sha256.New()
	h.Write(roundRootLabel)
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], c.Round)
	h.Write(b[:])
	h.Write(c.Prev[:])
	h.Write(c.RosterRoot[:])
	binary.LittleEndian.PutUint32(b[:4], c.RosterCount)
	h.Write(b[:4])
	h.Write(c.InputRoot[:])
	binary.LittleEndian.PutUint32(b[:4], c.InputCount)
	h.Write(b[:4])
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// Proof is one client's inclusion proof against a Commitment: the audit
// paths for its roster leaf and its masked-input leaf.
type Proof struct {
	Round       uint64
	ID          uint64
	RosterIndex uint32
	RosterPath  [][32]byte
	InputIndex  uint32
	InputPath   [][32]byte
}

// CombineCommitment is the combiner tier's signed header: the Merkle root
// over the contributing shards' round roots, chained to the combiner's
// previous round root.
type CombineCommitment struct {
	Round      uint64
	Prev       [32]byte
	ShardRoot  [32]byte
	ShardCount uint32
	Signature  []byte
}

// Root recomputes the combiner-tier round root.
func (c *CombineCommitment) Root() [32]byte {
	h := sha256.New()
	h.Write(combineRootLabel)
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], c.Round)
	h.Write(b[:])
	h.Write(c.Prev[:])
	h.Write(c.ShardRoot[:])
	binary.LittleEndian.PutUint32(b[:4], c.ShardCount)
	h.Write(b[:4])
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// ShardProof is a shard's inclusion proof in the combiner tier: the audit
// path from ShardLeaf(shard, shard round root) to CombineCommitment's
// ShardRoot. One proof serves every client of the shard — the second hop
// of the two-tier client audit.
type ShardProof struct {
	Round uint64
	Shard uint64
	Index uint32
	Path  [][32]byte
}

// Transcript is one built round: the signed commitment plus the leaf
// material needed to issue proofs. Only the building side (the server)
// holds a Transcript; verifiers work from Commitment+Proof.
type Transcript struct {
	Commitment   Commitment
	rosterLeaves [][32]byte
	inputLeaves  [][32]byte
	rosterIdx    map[uint64]int
	inputIdx     map[uint64]int
}

// Build constructs one round's transcript. Roster entries and input
// digests are committed in ascending-id order regardless of input order;
// duplicate ids are rejected. prev is the previous round's root (zero for
// the first round); signer, when non-nil, signs the root.
func Build(round uint64, prev [32]byte, roster []RosterEntry, inputs []InputDigest,
	signer *sig.Signer) (*Transcript, error) {

	roster = append([]RosterEntry(nil), roster...)
	sort.Slice(roster, func(i, j int) bool { return roster[i].ID < roster[j].ID })
	inputs = append([]InputDigest(nil), inputs...)
	sort.Slice(inputs, func(i, j int) bool { return inputs[i].ID < inputs[j].ID })

	t := &Transcript{
		rosterLeaves: make([][32]byte, len(roster)),
		inputLeaves:  make([][32]byte, len(inputs)),
		rosterIdx:    make(map[uint64]int, len(roster)),
		inputIdx:     make(map[uint64]int, len(inputs)),
	}
	for i, e := range roster {
		if _, dup := t.rosterIdx[e.ID]; dup {
			return nil, fmt.Errorf("transcript: duplicate roster entry %d", e.ID)
		}
		t.rosterIdx[e.ID] = i
		t.rosterLeaves[i] = rosterLeaf(e)
	}
	for i, d := range inputs {
		if _, dup := t.inputIdx[d.ID]; dup {
			return nil, fmt.Errorf("transcript: duplicate input digest %d", d.ID)
		}
		if _, inRoster := t.rosterIdx[d.ID]; !inRoster {
			return nil, fmt.Errorf("transcript: input digest from %d outside the roster", d.ID)
		}
		t.inputIdx[d.ID] = i
		t.inputLeaves[i] = inputLeaf(d)
	}
	t.Commitment = Commitment{
		Round:       round,
		Prev:        prev,
		RosterRoot:  treeRoot(t.rosterLeaves),
		RosterCount: uint32(len(roster)),
		InputRoot:   treeRoot(t.inputLeaves),
		InputCount:  uint32(len(inputs)),
	}
	if signer != nil {
		root := t.Commitment.Root()
		t.Commitment.Signature = signer.Sign(sigPayload(root))
	}
	return t, nil
}

// Root returns the round root (the chained, signed value).
func (t *Transcript) Root() [32]byte { return t.Commitment.Root() }

// ProofFor issues the inclusion proof for one survivor: its roster leaf
// and its masked-input leaf. The id must have both a roster entry and an
// input digest (dropped clients have no contribution to prove).
func (t *Transcript) ProofFor(id uint64) (*Proof, error) {
	ri, ok := t.rosterIdx[id]
	if !ok {
		return nil, fmt.Errorf("transcript: no roster entry for %d", id)
	}
	ii, ok := t.inputIdx[id]
	if !ok {
		return nil, fmt.Errorf("transcript: no input digest for %d", id)
	}
	return &Proof{
		Round:       t.Commitment.Round,
		ID:          id,
		RosterIndex: uint32(ri),
		RosterPath:  proofPath(t.rosterLeaves, ri),
		InputIndex:  uint32(ii),
		InputPath:   proofPath(t.inputLeaves, ii),
	}, nil
}

// CombineTranscript is one built combiner-tier round.
type CombineTranscript struct {
	Commitment CombineCommitment
	leaves     [][32]byte
	idx        map[uint64]int
}

// BuildCombine constructs the combiner tier's transcript over the
// contributing shards' round roots (committed in ascending shard order).
func BuildCombine(round uint64, prev [32]byte, shards []ShardRoot, signer *sig.Signer) (*CombineTranscript, error) {
	shards = append([]ShardRoot(nil), shards...)
	sort.Slice(shards, func(i, j int) bool { return shards[i].Shard < shards[j].Shard })
	t := &CombineTranscript{
		leaves: make([][32]byte, len(shards)),
		idx:    make(map[uint64]int, len(shards)),
	}
	for i, s := range shards {
		if _, dup := t.idx[s.Shard]; dup {
			return nil, fmt.Errorf("transcript: duplicate shard root %d", s.Shard)
		}
		t.idx[s.Shard] = i
		t.leaves[i] = ShardLeaf(s)
	}
	t.Commitment = CombineCommitment{
		Round:      round,
		Prev:       prev,
		ShardRoot:  treeRoot(t.leaves),
		ShardCount: uint32(len(shards)),
	}
	if signer != nil {
		root := t.Commitment.Root()
		t.Commitment.Signature = signer.Sign(sigPayload(root))
	}
	return t, nil
}

// Root returns the combiner-tier round root.
func (t *CombineTranscript) Root() [32]byte { return t.Commitment.Root() }

// ProofFor issues shard's inclusion proof in the combiner tree.
func (t *CombineTranscript) ProofFor(shard uint64) (*ShardProof, error) {
	i, ok := t.idx[shard]
	if !ok {
		return nil, fmt.Errorf("transcript: shard %d not in the combiner tree", shard)
	}
	return &ShardProof{
		Round: t.Commitment.Round,
		Shard: shard,
		Index: uint32(i),
		Path:  proofPath(t.leaves, i),
	}, nil
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

// VerifySignature checks the commitment's root signature under serverPub.
// An empty serverPub skips the check (semi-honest deployments, mirroring
// the handshake's unsigned mode).
func VerifySignature(root [32]byte, signature, serverPub []byte) error {
	if len(serverPub) == 0 {
		return nil
	}
	if !sig.Verify(serverPub, sigPayload(root), signature) {
		return ErrBadSignature
	}
	return nil
}

// Verify is the client-side check for one flat (single-tier) round: the
// commitment's signature verifies under serverPub (when pinned), the
// client's own roster entry is included under RosterRoot, and its
// masked-input digest is included under InputRoot. It returns nil only
// when every check passes.
func Verify(c *Commitment, p *Proof, self RosterEntry, digest [32]byte, serverPub []byte) error {
	if p.ID != self.ID {
		return fmt.Errorf("%w: proof for %d, client is %d", ErrWrongIdentity, p.ID, self.ID)
	}
	if p.Round != c.Round {
		return fmt.Errorf("%w: proof round %d, commitment round %d", ErrRoundMismatch, p.Round, c.Round)
	}
	if err := VerifySignature(c.Root(), c.Signature, serverPub); err != nil {
		return err
	}
	got, err := rootFromPath(rosterLeaf(self), int(p.RosterIndex), int(c.RosterCount), p.RosterPath)
	if err != nil {
		return fmt.Errorf("%w: roster: %v", ErrProofMismatch, err)
	}
	if got != c.RosterRoot {
		return fmt.Errorf("%w: roster subtree", ErrProofMismatch)
	}
	got, err = rootFromPath(inputLeaf(InputDigest{ID: self.ID, Digest: digest}),
		int(p.InputIndex), int(c.InputCount), p.InputPath)
	if err != nil {
		return fmt.Errorf("%w: input: %v", ErrProofMismatch, err)
	}
	if got != c.InputRoot {
		return fmt.Errorf("%w: input subtree", ErrProofMismatch)
	}
	return nil
}

// VerifyCombineTier is the second hop of the two-tier audit: the shard's
// round root (which the client verified at tier one) is included in the
// combiner's tree, and the combiner's root signature verifies under
// combinerPub (when pinned).
func VerifyCombineTier(c *CombineCommitment, p *ShardProof, shardRoot [32]byte, combinerPub []byte) error {
	if p.Round != c.Round {
		return fmt.Errorf("%w: shard proof round %d, commitment round %d", ErrRoundMismatch, p.Round, c.Round)
	}
	if err := VerifySignature(c.Root(), c.Signature, combinerPub); err != nil {
		return err
	}
	got, err := rootFromPath(ShardLeaf(ShardRoot{Shard: p.Shard, Root: shardRoot}),
		int(p.Index), int(c.ShardCount), p.Path)
	if err != nil {
		return fmt.Errorf("%w: shard tier: %v", ErrProofMismatch, err)
	}
	if got != c.ShardRoot {
		return fmt.Errorf("%w: shard tier", ErrProofMismatch)
	}
	return nil
}

// Chain tracks a root chain tip — the server side uses it through
// Recorder to chain successive rounds, the client side through Auditor to
// audit them. The zero Chain has no tip (first round chains from zero).
type Chain struct {
	round uint64
	tip   [32]byte
	have  bool
}

// Tip returns the last recorded root and whether one exists.
func (c *Chain) Tip() ([32]byte, bool) { return c.tip, c.have }

// Round returns the last recorded round number (0 when none).
func (c *Chain) Round() uint64 { return c.round }

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

// BuildRound builds, signs, and chains one flat-tier round transcript.
func (r *Recorder) BuildRound(round uint64, roster []RosterEntry, inputs []InputDigest) (*Transcript, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	prev, _ := r.chain.Tip()
	t, err := Build(round, prev, roster, inputs, r.signer)
	if err != nil {
		return nil, err
	}
	if err := r.chain.Extend(round, prev, t.Root()); err != nil {
		return nil, err
	}
	return t, nil
}

// BuildCombineRound builds, signs, and chains one combiner-tier round
// transcript.
func (r *Recorder) BuildCombineRound(round uint64, shards []ShardRoot) (*CombineTranscript, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	prev, _ := r.chain.Tip()
	t, err := BuildCombine(round, prev, shards, r.signer)
	if err != nil {
		return nil, err
	}
	if err := r.chain.Extend(round, prev, t.Root()); err != nil {
		return nil, err
	}
	return t, nil
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

// Auditor is the client-side verification state across rounds: the
// pinned server key, the root chain, and the audit history. A nil
// serverPub accepts unsigned transcripts (semi-honest deployments).
type Auditor struct {
	mu        sync.Mutex
	serverPub []byte
	chain     Chain
	history   []RootRecord
}

// NewAuditor builds an auditor pinning serverPub (may be nil/empty).
func NewAuditor(serverPub []byte) *Auditor {
	return &Auditor{serverPub: append([]byte(nil), serverPub...)}
}

// VerifyRound runs the full client check for one flat-tier round —
// signature, roster inclusion, input inclusion, and chain continuity —
// and appends the root to the audit history on success. The first
// verified round is adopted as the chain anchor (trust-on-first-audit: a
// client joining or rejoining mid-stream cannot know the prior root);
// every later round must chain from it.
func (a *Auditor) VerifyRound(c *Commitment, p *Proof, self RosterEntry, digest [32]byte) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := Verify(c, p, self, digest, a.serverPub); err != nil {
		return err
	}
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
func (a *Auditor) History() []RootRecord {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]RootRecord(nil), a.history...)
}

// combineAuditor state is separate from the round chain: the combiner is
// its own signer with its own root history, so clients of a sharded
// deployment track two chains.
type combineState struct {
	chain Chain
}

// CombineAuditor audits the combiner tier: shard-root inclusion plus the
// combiner's own chain. Kept separate from Auditor so a flat deployment
// pays nothing for it.
type CombineAuditor struct {
	mu          sync.Mutex
	combinerPub []byte
	state       combineState
	history     []RootRecord
}

// NewCombineAuditor builds a combiner-tier auditor pinning combinerPub
// (may be nil/empty).
func NewCombineAuditor(combinerPub []byte) *CombineAuditor {
	return &CombineAuditor{combinerPub: append([]byte(nil), combinerPub...)}
}

// VerifyTier checks one combiner-tier commitment against the shard root
// the client verified at tier one, then extends the combiner chain (the
// first verified tier round is adopted as the anchor, exactly as in
// Auditor.VerifyRound).
func (a *CombineAuditor) VerifyTier(c *CombineCommitment, p *ShardProof, shardRoot [32]byte) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := VerifyCombineTier(c, p, shardRoot, a.combinerPub); err != nil {
		return err
	}
	root := c.Root()
	if _, have := a.state.chain.Tip(); !have {
		a.state.chain.Adopt(c.Round, root)
	} else if err := a.state.chain.Extend(c.Round, c.Prev, root); err != nil {
		return err
	}
	a.history = append(a.history, RootRecord{Round: c.Round, Root: root})
	return nil
}

// History returns the audited combiner-tier (round, root) records.
func (a *CombineAuditor) History() []RootRecord {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]RootRecord(nil), a.history...)
}
