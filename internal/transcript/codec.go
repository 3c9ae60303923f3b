package transcript

import (
	"fmt"

	"repro/internal/transport"
)

// Fixed binary codec for the 0x60 frame family, in the 0xDB/0xDC style:
// a magic byte naming the family, a frame tag, a version byte, then
// little-endian fixed-width fields, read and written through the shared
// transport.Reader/Writer. Every frame is one tier's commitment, one
// proof, or both, through the one pair of helpers below. See PROTOCOL.md
// ("Transcript frames (0x60 family)") for the byte-level layouts.
const (
	codecMagic   = 0xDD
	codecVersion = 1

	tagCommitment = 0x01
	tagProof      = 0x02
	tagCombine    = 0x03
	tagChain      = 0x04

	// maxPathLen bounds an audit path: 255 levels ≍ 2^255 leaves, far
	// beyond any roster, and keeps the length field one byte.
	maxPathLen = 255
	// maxSigLen is what the signature's two-byte length field can say.
	maxSigLen = 1<<16 - 1
)

// newFrame starts a frame of the given version: magic, tag, version.
func newFrame(tag, version byte, size int) *transport.Writer {
	w := transport.NewWriter(codecMagic, tag, 1+size)
	w.Raw(version)
	return w
}

// openFrame validates a frame's magic, tag and version.
func openFrame(p []byte, tag, version byte) *transport.Reader {
	r := transport.NewReader(p, codecMagic, tag)
	if v := r.Byte(); v != version {
		r.Fail(fmt.Errorf("frame version %d, want %d", v, version))
	}
	return r
}

func readHash(r *transport.Reader) (h [32]byte) {
	copy(h[:], r.Raw(32))
	return h
}

// commitmentSize and proofSize are the encoded field lengths.
func commitmentSize(c *Commitment) int { return 8 + 32 + 36*len(c.Subtrees) + 2 + len(c.Signature) }

func proofSize(p *Proof) int {
	n := 8 + 8
	for _, path := range p.Paths {
		n += 4 + 1 + 32*len(path.Nodes)
	}
	return n
}

// writeCommitment appends [round:8][prev:32], a [root:32][count:4] per
// subtree of tier t, and the [len:2] signature.
func writeCommitment(w *transport.Writer, t *tier, c *Commitment) {
	if len(c.Subtrees) != len(t.subtrees) {
		w.Fail(fmt.Errorf("transcript: commitment of %d subtrees, the tier commits %d", len(c.Subtrees), len(t.subtrees)))
		return
	}
	w.Uint64(c.Round)
	w.Raw(c.Prev[:]...)
	for _, s := range c.Subtrees {
		w.Raw(s.Root[:]...)
		w.Uint32(s.Count)
	}
	w.Blob(c.Signature, maxSigLen)
}

// readCommitment reads a writeCommitment field of tier t.
func readCommitment(r *transport.Reader, t *tier) Commitment {
	c := Commitment{tier: t, Round: r.Uint64(), Prev: readHash(r), Subtrees: make([]Subtree, len(t.subtrees))}
	for i := range c.Subtrees {
		c.Subtrees[i] = Subtree{Root: readHash(r), Count: r.Uint32()}
	}
	c.Signature = r.Blob(maxSigLen)
	return c
}

// writeProof appends [round:8][id:8] and an [index:4][n:1][n×32] audit
// path per subtree of tier t.
func writeProof(w *transport.Writer, t *tier, p *Proof) {
	if len(p.Paths) != len(t.subtrees) {
		w.Fail(fmt.Errorf("transcript: proof of %d paths, the tier commits %d subtrees", len(p.Paths), len(t.subtrees)))
		return
	}
	w.Uint64(p.Round)
	w.Uint64(p.ID)
	for _, path := range p.Paths {
		if len(path.Nodes) > maxPathLen {
			w.Fail(fmt.Errorf("transcript: audit path of %d levels", len(path.Nodes)))
			return
		}
		w.Uint32(path.Index)
		w.Raw(byte(len(path.Nodes)))
		for i := range path.Nodes {
			w.Raw(path.Nodes[i][:]...)
		}
	}
}

// readProof reads a writeProof field of tier t; a path's levels are
// allocated only once the payload has proved it carries them (nil when
// empty).
func readProof(r *transport.Reader, t *tier) Proof {
	p := Proof{Round: r.Uint64(), ID: r.Uint64(), Paths: make([]Path, len(t.subtrees))}
	for i := range p.Paths {
		p.Paths[i].Index = r.Uint32()
		n := int(r.Byte())
		raw := r.Raw(32 * n)
		if n == 0 || raw == nil {
			continue
		}
		p.Paths[i].Nodes = make([][32]byte, n)
		for j := range p.Paths[i].Nodes {
			copy(p.Paths[i].Nodes[j][:], raw[32*j:])
		}
	}
	return p
}

// EncodeCommitment serializes a round commitment (the TagTranscriptCommit
// payload, broadcast to every survivor).
func EncodeCommitment(c *Commitment) ([]byte, error) {
	w := newFrame(tagCommitment, codecVersion, commitmentSize(c))
	writeCommitment(w, roundTier, c)
	return w.Done()
}

// DecodeCommitment parses an EncodeCommitment payload.
func DecodeCommitment(p []byte) (*Commitment, error) {
	r := openFrame(p, tagCommitment, codecVersion)
	c := readCommitment(r, roundTier)
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("transcript: commitment: %w", err)
	}
	return &c, nil
}

// EncodeProof serializes a per-client inclusion proof (the
// TagTranscriptProof payload, sent to that survivor only).
func EncodeProof(pr *Proof) ([]byte, error) {
	w := newFrame(tagProof, codecVersion, proofSize(pr))
	writeProof(w, roundTier, pr)
	return w.Done()
}

// DecodeProof parses an EncodeProof payload.
func DecodeProof(p []byte) (*Proof, error) {
	r := openFrame(p, tagProof, codecVersion)
	pr := readProof(r, roundTier)
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("transcript: proof: %w", err)
	}
	return &pr, nil
}

// CombineTierMsg is the TagCombineTranscript payload: the combiner-tier
// commitment bundled with the receiving shard's inclusion proof, so one
// frame gives a shard's clients the whole second hop of the audit.
type CombineTierMsg struct {
	Commitment Commitment
	Proof      Proof
}

// EncodeCombineTier serializes a combiner-tier frame.
func EncodeCombineTier(m *CombineTierMsg) ([]byte, error) {
	w := newFrame(tagCombine, codecVersion, commitmentSize(&m.Commitment)+proofSize(&m.Proof))
	writeCommitment(w, combineTier, &m.Commitment)
	writeProof(w, combineTier, &m.Proof)
	return w.Done()
}

// DecodeCombineTier parses an EncodeCombineTier payload.
func DecodeCombineTier(p []byte) (*CombineTierMsg, error) {
	r := openFrame(p, tagCombine, codecVersion)
	m := &CombineTierMsg{Commitment: readCommitment(r, combineTier), Proof: readProof(r, combineTier)}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("transcript: combine-tier frame: %w", err)
	}
	return m, nil
}
