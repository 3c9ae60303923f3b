package transcript

import (
	"fmt"

	"repro/internal/transport"
)

// Fixed binary codec for the 0x60 frame family, in the 0xDB/0xDC style:
// a magic byte naming the family, a frame tag, a version byte, then
// little-endian fixed-width fields, read and written through the shared
// transport.Reader/Writer. See PROTOCOL.md ("Transcript frames (0x60
// family)") for the byte-level layouts.
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

// writePath appends a [n:1][n×32] audit path.
func writePath(w *transport.Writer, path [][32]byte) {
	if len(path) > maxPathLen {
		w.Fail(fmt.Errorf("transcript: audit path of %d levels", len(path)))
		return
	}
	w.Raw(byte(len(path)))
	for i := range path {
		w.Raw(path[i][:]...)
	}
}

// readPath reads a writePath field (nil when empty); the levels are
// allocated only once the payload has proved it carries them.
func readPath(r *transport.Reader) [][32]byte {
	n := int(r.Byte())
	raw := r.Raw(32 * n)
	if n == 0 || raw == nil {
		return nil
	}
	path := make([][32]byte, n)
	for i := range path {
		copy(path[i][:], raw[32*i:])
	}
	return path
}

// EncodeCommitment serializes a round commitment (the TagTranscriptCommit
// payload, broadcast to every survivor).
func EncodeCommitment(c *Commitment) ([]byte, error) {
	w := newFrame(tagCommitment, codecVersion, 8+32+32+4+32+4+2+len(c.Signature))
	w.Uint64(c.Round)
	w.Raw(c.Prev[:]...)
	w.Raw(c.RosterRoot[:]...)
	w.Uint32(c.RosterCount)
	w.Raw(c.InputRoot[:]...)
	w.Uint32(c.InputCount)
	w.Blob(c.Signature, maxSigLen)
	return w.Done()
}

// DecodeCommitment parses an EncodeCommitment payload.
func DecodeCommitment(p []byte) (*Commitment, error) {
	r := openFrame(p, tagCommitment, codecVersion)
	c := &Commitment{
		Round: r.Uint64(), Prev: readHash(r),
		RosterRoot: readHash(r), RosterCount: r.Uint32(),
		InputRoot: readHash(r), InputCount: r.Uint32(),
		Signature: r.Blob(maxSigLen),
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("transcript: commitment: %w", err)
	}
	return c, nil
}

// EncodeProof serializes a per-client inclusion proof (the
// TagTranscriptProof payload, sent to that survivor only).
func EncodeProof(pr *Proof) ([]byte, error) {
	w := newFrame(tagProof, codecVersion, 8+8+4+1+4+1+32*(len(pr.RosterPath)+len(pr.InputPath)))
	w.Uint64(pr.Round)
	w.Uint64(pr.ID)
	w.Uint32(pr.RosterIndex)
	writePath(w, pr.RosterPath)
	w.Uint32(pr.InputIndex)
	writePath(w, pr.InputPath)
	return w.Done()
}

// DecodeProof parses an EncodeProof payload.
func DecodeProof(p []byte) (*Proof, error) {
	r := openFrame(p, tagProof, codecVersion)
	pr := &Proof{
		Round: r.Uint64(), ID: r.Uint64(),
		RosterIndex: r.Uint32(), RosterPath: readPath(r),
		InputIndex: r.Uint32(), InputPath: readPath(r),
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("transcript: proof: %w", err)
	}
	return pr, nil
}

// CombineTierMsg is the TagCombineTranscript payload: the combiner-tier
// commitment bundled with the receiving shard's inclusion proof, so one
// frame gives a shard's clients the whole second hop of the audit.
type CombineTierMsg struct {
	Commitment CombineCommitment
	Proof      ShardProof
}

// EncodeCombineTier serializes a combiner-tier frame.
func EncodeCombineTier(m *CombineTierMsg) ([]byte, error) {
	c, pr := &m.Commitment, &m.Proof
	w := newFrame(tagCombine, codecVersion, 8+32+32+4+2+len(c.Signature)+8+8+4+1+32*len(pr.Path))
	w.Uint64(c.Round)
	w.Raw(c.Prev[:]...)
	w.Raw(c.ShardRoot[:]...)
	w.Uint32(c.ShardCount)
	w.Blob(c.Signature, maxSigLen)
	w.Uint64(pr.Round)
	w.Uint64(pr.Shard)
	w.Uint32(pr.Index)
	writePath(w, pr.Path)
	return w.Done()
}

// DecodeCombineTier parses an EncodeCombineTier payload.
func DecodeCombineTier(p []byte) (*CombineTierMsg, error) {
	r := openFrame(p, tagCombine, codecVersion)
	m := &CombineTierMsg{
		Commitment: CombineCommitment{
			Round: r.Uint64(), Prev: readHash(r),
			ShardRoot: readHash(r), ShardCount: r.Uint32(),
			Signature: r.Blob(maxSigLen),
		},
		Proof: ShardProof{Round: r.Uint64(), Shard: r.Uint64(), Index: r.Uint32(), Path: readPath(r)},
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("transcript: combine-tier frame: %w", err)
	}
	return m, nil
}
