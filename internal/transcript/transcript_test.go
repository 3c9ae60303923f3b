package transcript

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/sig"
)

func testRoster(n int) []RosterEntry {
	out := make([]RosterEntry, n)
	for i := range out {
		cp := make([]byte, 32)
		mp := make([]byte, 32)
		for j := range cp {
			cp[j] = byte(i + j)
			mp[j] = byte(i*7 + j)
		}
		out[i] = RosterEntry{ID: uint64(i + 1), CipherPub: cp, MaskPub: mp}
	}
	return out
}

func testDigests(roster []RosterEntry) []InputDigest {
	out := make([]InputDigest, len(roster))
	for i, e := range roster {
		out[i] = InputDigest{ID: e.ID, Digest: Digest([]uint64{e.ID, e.ID * 3, e.ID * 5})}
	}
	return out
}

// buildCombine builds a combiner-tier transcript from any prev, as
// Recorder.BuildCombineRound does from its chain tip.
func buildCombine(t *testing.T, round uint64, prev [32]byte, shards []ShardRoot, signer *sig.Signer) *Transcript {
	t.Helper()
	ct, err := combineTier.build(round, prev, signer, combineSets(shards))
	if err != nil {
		t.Fatal(err)
	}
	return ct
}

func newTestSigner(t *testing.T) *sig.Signer {
	t.Helper()
	s, err := sig.NewSigner(rand.Reader)
	if err != nil {
		t.Fatalf("NewSigner: %v", err)
	}
	return s
}

// TestProofRoundTripAllSizes verifies every member's proof at every tree
// size that exercises a distinct Merkle shape (1 leaf, powers of two,
// off-by-one around them).
func TestProofRoundTripAllSizes(t *testing.T) {
	signer := newTestSigner(t)
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 16, 17} {
		roster := testRoster(n)
		digests := testDigests(roster)
		tr, err := buildRound(42, [32]byte{}, roster, digests, signer)
		if err != nil {
			t.Fatalf("n=%d build: %v", n, err)
		}
		for i, e := range roster {
			pr, err := tr.ProofFor(e.ID)
			if err != nil {
				t.Fatalf("n=%d ProofFor(%d): %v", n, e.ID, err)
			}
			if err := Verify(&tr.Commitment, pr, e, digests[i].Digest, signer.Public()); err != nil {
				t.Fatalf("n=%d Verify(%d): %v", n, e.ID, err)
			}
		}
	}
}

// TestVerifyRejectsWrongKey pins that a pinned server key is actually
// checked, and that the unsigned mode (empty pub) skips it.
func TestVerifyRejectsWrongKey(t *testing.T) {
	signer, other := newTestSigner(t), newTestSigner(t)
	roster := testRoster(4)
	digests := testDigests(roster)
	tr, err := buildRound(1, [32]byte{}, roster, digests, signer)
	if err != nil {
		t.Fatal(err)
	}
	pr, _ := tr.ProofFor(2)
	if err := Verify(&tr.Commitment, pr, roster[1], digests[1].Digest, other.Public()); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("wrong key: got %v, want ErrBadSignature", err)
	}
	if err := Verify(&tr.Commitment, pr, roster[1], digests[1].Digest, nil); err != nil {
		t.Fatalf("unsigned mode: %v", err)
	}
}

// TestBuildRejectsMalformedInput pins the constructor's invariants:
// duplicate ids and digests from outside the roster.
func TestBuildRejectsMalformedInput(t *testing.T) {
	roster := testRoster(3)
	if _, err := buildRound(1, [32]byte{}, append(roster, roster[0]), nil, nil); err == nil {
		t.Fatal("duplicate roster entry accepted")
	}
	if _, err := buildRound(1, [32]byte{}, roster, []InputDigest{{ID: 99}}, nil); err == nil {
		t.Fatal("digest from outside the roster accepted")
	}
	tr, err := buildRound(1, [32]byte{}, roster, testDigests(roster)[:2], nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.ProofFor(3); err == nil {
		t.Fatal("proof issued for a member without an input digest")
	}
}

// TestChainSemantics pins Extend's continuity and monotonicity rules and
// the chain's marshal round trip.
func TestChainSemantics(t *testing.T) {
	var c Chain
	r1 := [32]byte{1}
	r2 := [32]byte{2}
	if err := c.Extend(1, [32]byte{}, r1); err != nil {
		t.Fatalf("first extend: %v", err)
	}
	if err := c.Extend(2, [32]byte{9}, r2); !errors.Is(err, ErrChainBroken) {
		t.Fatalf("bad prev: got %v, want ErrChainBroken", err)
	}
	if err := c.Extend(1, r1, r2); !errors.Is(err, ErrChainNotNewer) {
		t.Fatalf("non-advancing round: got %v, want ErrChainNotNewer", err)
	}
	if err := c.Extend(2, r1, r2); err != nil {
		t.Fatalf("second extend: %v", err)
	}
	blob, err := c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalChain(blob)
	if err != nil {
		t.Fatal(err)
	}
	if tip, ok := got.Tip(); !ok || tip != r2 {
		t.Fatalf("unmarshalled chain tip=%x", tip)
	}
	if err := got.Extend(2, r2, [32]byte{3}); !errors.Is(err, ErrChainNotNewer) {
		t.Fatalf("unmarshalled chain forgot its round: got %v, want ErrChainNotNewer", err)
	}
	if err := got.Extend(3, r2, [32]byte{3}); err != nil {
		t.Fatalf("unmarshalled chain does not extend: %v", err)
	}
}

// TestRecorderChainsRounds pins that successive BuildRound calls chain
// (each commitment's Prev is the previous root) and that an auditor
// accepts the sequence.
func TestRecorderChainsRounds(t *testing.T) {
	signer := newTestSigner(t)
	rec := NewRecorder(signer)
	aud := NewAuditor(signer.Public())
	roster := testRoster(4)
	var prevRoot [32]byte
	for round := uint64(1); round <= 3; round++ {
		digests := testDigests(roster)
		tr, err := rec.BuildRound(round, roster, digests)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if tr.Commitment.Prev != prevRoot {
			t.Fatalf("round %d Prev=%x, want %x", round, tr.Commitment.Prev, prevRoot)
		}
		pr, err := tr.ProofFor(2)
		if err != nil {
			t.Fatal(err)
		}
		if err := aud.VerifyRound(&tr.Commitment, pr, roster[1], digests[1].Digest); err != nil {
			t.Fatalf("round %d audit: %v", round, err)
		}
		prevRoot = tr.Root()
	}
	if h := aud.History(); len(h) != 3 || h[2].Round != 3 {
		t.Fatalf("auditor history %+v", h)
	}
}

// TestAuditorTrustOnFirstAudit pins the mid-stream bootstrap: a fresh
// auditor adopts whatever round it verifies first (a client joining or
// restarting cannot know the prior root), but from then on the chain is
// enforced — a later round whose Prev does not match the adopted tip is
// rejected, as is a non-advancing round number.
func TestAuditorTrustOnFirstAudit(t *testing.T) {
	signer := newTestSigner(t)
	rec := NewRecorder(signer)
	roster := testRoster(4)
	digests := testDigests(roster)
	var trs []*Transcript
	for round := uint64(1); round <= 3; round++ {
		tr, err := rec.BuildRound(round, roster, digests)
		if err != nil {
			t.Fatal(err)
		}
		trs = append(trs, tr)
	}
	verify := func(aud *Auditor, tr *Transcript) error {
		pr, err := tr.ProofFor(2)
		if err != nil {
			t.Fatal(err)
		}
		return aud.VerifyRound(&tr.Commitment, pr, roster[1], digests[1].Digest)
	}

	// Joining at round 2 (non-zero Prev) adopts it, then round 3 chains.
	aud := NewAuditor(signer.Public())
	if err := verify(aud, trs[1]); err != nil {
		t.Fatalf("mid-stream first audit: %v", err)
	}
	if err := verify(aud, trs[2]); err != nil {
		t.Fatalf("post-adoption audit: %v", err)
	}
	// After adoption the chain is enforced: round 1 neither advances the
	// round nor chains from the adopted tip.
	if err := verify(aud, trs[0]); !errors.Is(err, ErrChainNotNewer) {
		t.Fatalf("rewound round: got %v, want ErrChainNotNewer", err)
	}
	// A round skipping the chain (Prev pointing at round 1, tip at round
	// 3) is a break, not a fresh adoption.
	aud2 := NewAuditor(signer.Public())
	if err := verify(aud2, trs[0]); err != nil {
		t.Fatal(err)
	}
	if err := verify(aud2, trs[2]); !errors.Is(err, ErrChainBroken) {
		t.Fatalf("skipped round: got %v, want ErrChainBroken", err)
	}
	if h := aud2.History(); len(h) != 1 {
		t.Fatalf("failed audit extended the history: %+v", h)
	}
}

// TestCombineTierRoundTrip pins the two-tier composition: shard roots as
// combiner leaves, shard proofs verifying against the combiner root.
func TestCombineTierRoundTrip(t *testing.T) {
	signer := newTestSigner(t)
	shards := []ShardRoot{
		{Shard: 0, Root: [32]byte{1}},
		{Shard: 1, Root: [32]byte{2}},
		{Shard: 2, Root: [32]byte{3}},
	}
	ct := buildCombine(t, 7, [32]byte{}, shards, signer)
	for _, s := range shards {
		pr, err := ct.ProofFor(s.Shard)
		if err != nil {
			t.Fatal(err)
		}
		if err := NewCombineAuditor(signer.Public()).VerifyTier(&ct.Commitment, pr, s.Root); err != nil {
			t.Fatalf("shard %d: %v", s.Shard, err)
		}
		wrong := s.Root
		wrong[0] ^= 1
		if err := NewCombineAuditor(signer.Public()).VerifyTier(&ct.Commitment, pr, wrong); err == nil {
			t.Fatalf("shard %d verified against a mutated root", s.Shard)
		}
	}
}

// TestTranscriptFramesGolden pins the integrity layer's bytes: both tiers'
// roots and the SHA-256 of each 0x60-family frame, from a signer with a
// fixed seed (Ed25519 signing is deterministic). A refactor of the
// builder, verifier or codec must leave every value where it is.
func TestTranscriptFramesGolden(t *testing.T) {
	signer, err := sig.NewSigner(bytes.NewReader(bytes.Repeat([]byte{0x5A}, 32)))
	if err != nil {
		t.Fatal(err)
	}
	roster := testRoster(5)
	tr, err := buildRound(3, [32]byte{8}, roster, testDigests(roster), signer)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := tr.ProofFor(4)
	if err != nil {
		t.Fatal(err)
	}
	// Two chained combine rounds over two shards, given out of order: the
	// second commits a non-zero prev.
	rec := NewRecorder(signer)
	shards := []ShardRoot{{Shard: 1, Root: tr.Root()}, {Shard: 0, Root: [32]byte{0xCD}}}
	if _, err := rec.BuildCombineRound(2, shards); err != nil {
		t.Fatal(err)
	}
	ct, err := rec.BuildCombineRound(3, shards)
	if err != nil {
		t.Fatal(err)
	}
	spr, err := ct.ProofFor(1)
	if err != nil {
		t.Fatal(err)
	}
	frameHash := func(p []byte, err error) string {
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.Sum256(p)
		return hex.EncodeToString(h[:])
	}
	rr, cr := tr.Root(), ct.Root()
	for _, c := range []struct{ name, got, want string }{
		{"round root", hex.EncodeToString(rr[:]),
			"334f9bd357b99acf8668c4e2840ce60278646641d097b3854062c545afff71b1"},
		{"combine root", hex.EncodeToString(cr[:]),
			"607641a1fbd49a58ae6878130879e96550b2b6134c73d5d0de8d12581ea8fe94"},
		{"commitment frame", frameHash(EncodeCommitment(&tr.Commitment)),
			"dab0a25b3c8e6c3de2b9856ade6555adc96aeebd92f05f4e58ed16934dc1cbd6"},
		{"member 4 proof frame", frameHash(EncodeProof(pr)),
			"f47e64389d297fe6d32ed077334eb1667c4a4d5b4d488d2430269a59a4f3f8e6"},
		{"combine-tier frame", frameHash(EncodeCombineTier(&CombineTierMsg{Commitment: ct.Commitment, Proof: *spr})),
			"00330ff628d7d984ee1d26c4bec4434a9c6dfbe6cc1897327b82370a48b8c819"},
	} {
		if c.got != c.want {
			t.Errorf("%s = %s, want %s", c.name, c.got, c.want)
		}
	}
}

// TestRecorderRestartRoundTrip pins that a recorder restored from
// MarshalBinary continues the same chain.
func TestRecorderRestartRoundTrip(t *testing.T) {
	signer := newTestSigner(t)
	rec := NewRecorder(signer)
	roster := testRoster(3)
	t1, err := rec.BuildRound(1, roster, testDigests(roster))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := rec.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	rec2, err := UnmarshalRecorder(blob, signer)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := rec2.BuildRound(2, roster, testDigests(roster))
	if err != nil {
		t.Fatal(err)
	}
	if t2.Commitment.Prev != t1.Root() {
		t.Fatalf("restored recorder broke the chain: Prev=%x want %x", t2.Commitment.Prev, t1.Root())
	}
}

// TestTranscriptTamperMatrix is the adversarial pin of the integrity
// layer: starting from a commitment+proof pair that verifies, it mutates
// EVERY byte position of (a) the encoded commitment — which carries the
// chained prev, both subtree roots, the leaf counts, and the root
// signature, (b) the encoded inclusion proof — round, identity, indices
// and both audit paths, (c) the client's masked-input digest (the input
// leaf preimage), and (d) the client's roster entry encoding (the roster
// leaf preimage), asserting that verification fails for every single
// mutation. A surviving mutation would be a forgeable bit of the round's
// history.
func TestTranscriptTamperMatrix(t *testing.T) {
	signer := newTestSigner(t)
	roster := testRoster(6)
	digests := testDigests(roster)
	tr, err := buildRound(9, [32]byte{0xEE}, roster, digests, signer)
	if err != nil {
		t.Fatal(err)
	}
	self := roster[3]
	digest := digests[3].Digest
	pr, err := tr.ProofFor(self.ID)
	if err != nil {
		t.Fatal(err)
	}
	commitBytes, err := EncodeCommitment(&tr.Commitment)
	if err != nil {
		t.Fatal(err)
	}
	proofBytes, err := EncodeProof(pr)
	if err != nil {
		t.Fatal(err)
	}
	pub := signer.Public()

	// Baseline sanity: the untampered pair verifies through the decode path.
	verify := func(cb, pb []byte, self RosterEntry, digest [32]byte) error {
		c, err := DecodeCommitment(cb)
		if err != nil {
			return err
		}
		p, err := DecodeProof(pb)
		if err != nil {
			return err
		}
		return Verify(c, p, self, digest, pub)
	}
	if err := verify(commitBytes, proofBytes, self, digest); err != nil {
		t.Fatalf("baseline verification: %v", err)
	}

	// (a)+(b): every byte of the two wire frames, under three different
	// single-byte mutations each (flip all bits, flip low bit, set zero —
	// a mutation class that catches "ignored byte" and "compared modulo"
	// bugs a single pattern might miss).
	for _, frame := range []struct {
		name string
		data []byte
	}{{"commitment", commitBytes}, {"proof", proofBytes}} {
		for pos := 0; pos < len(frame.data); pos++ {
			orig := frame.data[pos]
			for _, mut := range []byte{orig ^ 0xFF, orig ^ 0x01, 0x00} {
				if mut == orig {
					continue
				}
				tampered := append([]byte(nil), frame.data...)
				tampered[pos] = mut
				cb, pb := commitBytes, proofBytes
				if frame.name == "commitment" {
					cb = tampered
				} else {
					pb = tampered
				}
				if err := verify(cb, pb, self, digest); err == nil {
					t.Fatalf("%s byte %d: mutation %02x→%02x verified", frame.name, pos, orig, mut)
				}
			}
		}
	}

	// (c): every byte of the masked-input digest (the input-leaf preimage).
	for pos := 0; pos < len(digest); pos++ {
		bad := digest
		bad[pos] ^= 0xFF
		if err := verify(commitBytes, proofBytes, self, bad); err == nil {
			t.Fatalf("digest byte %d: mutation verified", pos)
		}
	}

	// (d): every byte of the roster-leaf preimage — id, cipher pub, mask
	// pub (the client's own advertised identity and keys).
	for pos := 0; pos < 8; pos++ {
		bad := self
		bad.ID ^= 1 << (8 * pos)
		if err := verify(commitBytes, proofBytes, bad, digest); err == nil {
			t.Fatalf("roster id byte %d: mutation verified", pos)
		}
	}
	for pos := range self.CipherPub {
		bad := self
		bad.CipherPub = append([]byte(nil), self.CipherPub...)
		bad.CipherPub[pos] ^= 0xFF
		if err := verify(commitBytes, proofBytes, bad, digest); err == nil {
			t.Fatalf("cipher pub byte %d: mutation verified", pos)
		}
	}
	for pos := range self.MaskPub {
		bad := self
		bad.MaskPub = append([]byte(nil), self.MaskPub...)
		bad.MaskPub[pos] ^= 0xFF
		if err := verify(commitBytes, proofBytes, bad, digest); err == nil {
			t.Fatalf("mask pub byte %d: mutation verified", pos)
		}
	}

	// Cross-frame splice: a valid proof for a different member must not
	// verify as this member's.
	otherProof, err := tr.ProofFor(roster[1].ID)
	if err != nil {
		t.Fatal(err)
	}
	ob, err := EncodeProof(otherProof)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify(commitBytes, ob, self, digest); !errors.Is(err, ErrWrongIdentity) {
		t.Fatalf("spliced proof: got %v, want ErrWrongIdentity", err)
	}
}

// TestCombineTamperMatrix applies the same byte matrix to the combiner
// tier frame: every byte of the encoded CombineTierMsg must break either
// decoding or CombineAuditor.VerifyTier.
func TestCombineTamperMatrix(t *testing.T) {
	signer := newTestSigner(t)
	shardRoot := [32]byte{0xAB, 1, 2, 3}
	ct := buildCombine(t, 5, [32]byte{0x11}, []ShardRoot{
		{Shard: 0, Root: shardRoot}, {Shard: 1, Root: [32]byte{0xCD}},
	}, signer)
	pr, err := ct.ProofFor(0)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := EncodeCombineTier(&CombineTierMsg{Commitment: ct.Commitment, Proof: *pr})
	if err != nil {
		t.Fatal(err)
	}
	pub := signer.Public()
	verify := func(fb []byte, root [32]byte) error {
		m, err := DecodeCombineTier(fb)
		if err != nil {
			return err
		}
		return NewCombineAuditor(pub).VerifyTier(&m.Commitment, &m.Proof, root)
	}
	if err := verify(frame, shardRoot); err != nil {
		t.Fatalf("baseline: %v", err)
	}
	for pos := 0; pos < len(frame); pos++ {
		orig := frame[pos]
		for _, mut := range []byte{orig ^ 0xFF, orig ^ 0x01} {
			tampered := append([]byte(nil), frame...)
			tampered[pos] = mut
			if err := verify(tampered, shardRoot); err == nil {
				t.Fatalf("combine frame byte %d: mutation %02x→%02x verified", pos, orig, mut)
			}
		}
	}
	for pos := 0; pos < len(shardRoot); pos++ {
		bad := shardRoot
		bad[pos] ^= 0xFF
		if err := verify(frame, bad); err == nil {
			t.Fatalf("shard root byte %d: mutation verified", pos)
		}
	}
}

// TestDigestCanonical pins the digest's framing: distinct vectors that
// would concatenate identically must not collide, and the digest is
// order-sensitive.
func TestDigestCanonical(t *testing.T) {
	if Digest([]uint64{1, 2}) == Digest([]uint64{2, 1}) {
		t.Fatal("digest ignores order")
	}
	if Digest(nil) == Digest([]uint64{0}) {
		t.Fatal("digest conflates empty and zero")
	}
	if !bytes.Equal(sum32(Digest([]uint64{7})), sum32(Digest([]uint64{7}))) {
		t.Fatal("digest not deterministic")
	}
}

func sum32(d [32]byte) []byte { return d[:] }

// TestDigestGolden pins the digest byte for byte against the values the
// per-word implementation produced: hashing the slab in one Write, or from
// a frame's bytes, must not move a single committed leaf.
func TestDigestGolden(t *testing.T) {
	xs := make([]uint64, 1000)
	for i := range xs {
		xs[i] = uint64(i)*0x9E3779B97F4A7C15 + 1
	}
	for _, c := range []struct {
		xs   []uint64
		want string
	}{
		{xs, "41fd8812980a6f2b355edbe40058abb781b1664cc2bf624818dc229817ed4a31"},
		{nil, "53eb47d28d5c0f60fece9d078d162c3fe7f3cb67d8082d4274f0a27909f5b724"},
	} {
		if got := hex.EncodeToString(sum32(Digest(c.xs))); got != c.want {
			t.Fatalf("Digest of %d words = %s, want %s", len(c.xs), got, c.want)
		}
	}
}

// TestDigestWordsEqualBytes: the words form and the bytes form are the
// same function of the same vector, wherever the bytes happen to lie.
func TestDigestWordsEqualBytes(t *testing.T) {
	prop := func(xs []uint64, offset uint8) bool {
		buf := make([]byte, int(offset%8)+8*len(xs))
		wire := buf[offset%8:]
		for i, x := range xs {
			binary.LittleEndian.PutUint64(wire[8*i:], x)
		}
		return Digest(xs) == DigestLE(wire)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// buildRound is the round tier's build over a roster and its input digests
// (see build for the ordering and membership rules), outside any chain;
// signer, when non-nil, signs the root.
func buildRound(round uint64, prev [32]byte, roster []RosterEntry, inputs []InputDigest, signer *sig.Signer) (*Transcript, error) {
	return roundTier.build(round, prev, signer, roundSets(roster, inputs))
}

// TestRosterRootOrderInsensitiveThroughBuild pins that the round tier's
// build commits entries in ascending-id order regardless of input order,
// so server and clients need not agree on slice order — only on set
// membership.
func TestRosterRootOrderInsensitiveThroughBuild(t *testing.T) {
	roster := testRoster(5)
	shuffled := []RosterEntry{roster[3], roster[0], roster[4], roster[2], roster[1]}
	a, err := buildRound(1, [32]byte{}, roster, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildRound(1, [32]byte{}, shuffled, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Root() != b.Root() {
		t.Fatal("build is input-order sensitive")
	}
}

func ExampleVerify() {
	signer, _ := sig.NewSigner(rand.Reader)
	roster := []RosterEntry{
		{ID: 1, CipherPub: []byte{1}, MaskPub: []byte{2}},
		{ID: 2, CipherPub: []byte{3}, MaskPub: []byte{4}},
	}
	digest := Digest([]uint64{10, 20, 30})
	tr, _ := buildRound(1, [32]byte{}, roster, []InputDigest{{ID: 1, Digest: digest}}, signer)
	proof, _ := tr.ProofFor(1)
	err := Verify(&tr.Commitment, proof, roster[0], digest, signer.Public())
	fmt.Println(err)
	// Output: <nil>
}
