// Package prg provides a deterministic, seekable pseudorandom generator
// built on AES-128 in counter mode.
//
// In the Dordis protocol (paper Fig. 5) PRGs are used in three roles, all of
// which require that two parties holding the same seed expand bit-identical
// streams:
//
//   - pairwise masks p_{u,v} = PRG(s_{u,v}) in SecAgg,
//   - self masks p_u = PRG(b_u),
//   - XNoise noise components n_{u,k} sampled from PRG(g_{u,k}).
//
// A Stream implements io.Reader and exposes typed draws (Uint64, Float64,
// bounded integers) used by package rng's distribution samplers.
package prg

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"unsafe"

	"repro/internal/endian"
	"repro/internal/field"
)

// SeedSize is the canonical seed length in bytes. Seeds of other lengths are
// accepted and hashed down to SeedSize.
const SeedSize = 32

// Seed is PRG key material. The protocol treats some seeds as field elements
// (so they can be Shamir-shared); FromFieldElement expands one to a Seed.
type Seed [SeedSize]byte

// NewSeed derives a Seed from arbitrary bytes via SHA-256. It is used both
// to canonicalize raw entropy and to derive sub-seeds with domain
// separation: NewSeed(parent[:], label...).
func NewSeed(parts ...[]byte) Seed {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	var s Seed
	h.Sum(s[:0])
	return s
}

// FromFieldElement derives a Seed from a GF(2^61-1) element. XNoise stores
// noise seeds as field elements so they can be secret-shared; expansion to
// key material goes through this deterministic map.
func FromFieldElement(e field.Element) Seed {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], e.Uint64())
	return NewSeed([]byte("dordis/prg/from-field/v1"), b[:])
}

// BlockSize is the AES-CTR keystream block granularity in bytes; Seek and
// At accept arbitrary byte offsets.
const BlockSize = aes.BlockSize

// Stream is a deterministic pseudorandom byte/word stream: AES-128-CTR over
// a zero plaintext, keyed by the first 16 bytes of the seed with the next
// 16 bytes as the initial counter block. It is NOT safe for concurrent use,
// but At derives independent cursors over the same keystream that may be
// driven from different goroutines.
type Stream struct {
	ctr      cipher.Stream // nil until the first draw or Seek (keystream)
	block    cipher.Block  // AES block, kept for random-access reseeking
	iv       [16]byte      // initial counter block (keystream offset 0)
	produced uint64        // keystream bytes drawn from ctr so far
	buf      [512]byte
	pos      int // next unread byte in buf; len(buf) means empty
}

// NewStream constructs a Stream from a seed.
func NewStream(seed Seed) *Stream {
	block, err := aes.NewCipher(seed[:16])
	if err != nil {
		// aes.NewCipher only fails on invalid key length; 16 is valid.
		panic(fmt.Sprintf("prg: %v", err))
	}
	s := &Stream{block: block}
	copy(s.iv[:], seed[16:32])
	s.pos = len(s.buf)
	return s
}

// keystream returns the CTR at the stream's position, building the
// offset-0 one on first use: a mask stream is only ever the parent of the
// cursors ring.MaskManyInPlace aims into it (AtInto), and the half
// kilobyte of counter state it never draws from is a third of a Stream.
func (s *Stream) keystream() cipher.Stream {
	if s.ctr == nil {
		s.ctr = cipher.NewCTR(s.block, s.iv[:])
	}
	return s.ctr
}

// NewStreamFromElement is shorthand for NewStream(FromFieldElement(e)).
func NewStreamFromElement(e field.Element) *Stream {
	return NewStream(FromFieldElement(e))
}

// bulkChunk is the quantum of the bulk keystream paths: large enough to
// amortize the CTR call overhead, small enough that a chunk plus its zero
// source stay cache-resident.
const bulkChunk = 32768

// zeroChunk is a read-only all-zero XORKeyStream source: XORing the
// keystream with zeros writes the raw keystream into dst in a single pass,
// replacing the seed's zero-then-XOR double pass over the refill buffer.
var zeroChunk [bulkChunk]byte

func (s *Stream) refill() {
	s.keystream().XORKeyStream(s.buf[:], zeroChunk[:len(s.buf)])
	s.produced += uint64(len(s.buf))
	s.pos = 0
}

// Read fills p with pseudorandom bytes. It never fails. It serves entirely
// from the lookahead buffer: typed 8-byte draws stay allocation-free (p is
// never passed to the cipher, so callers' stack buffers do not escape).
// Bulk consumers should use Fill, which streams into large buffers
// directly.
func (s *Stream) Read(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		if s.pos == len(s.buf) {
			s.refill()
		}
		c := copy(p, s.buf[s.pos:])
		s.pos += c
		p = p[c:]
	}
	return n, nil
}

// Fill overwrites dst with the next len(dst) stream bytes, keystreaming
// directly into the caller's buffer. The logical byte stream is identical
// to a sequence of Read calls consuming the same total — the internal
// buffer is pure lookahead — so client and server may freely mix scalar and
// bulk expansion and still coincide bit-for-bit.
func (s *Stream) Fill(dst []byte) {
	// Serve buffered lookahead first so the logical position is contiguous.
	if s.pos < len(s.buf) {
		c := copy(dst, s.buf[s.pos:])
		s.pos += c
		dst = dst[c:]
	}
	// Stream the rest straight from the CTR; small residues go through the
	// buffer so typed 8-byte draws keep their amortization.
	for len(dst) >= len(s.buf) {
		n := len(dst)
		if n > bulkChunk {
			n = bulkChunk
		}
		s.keystream().XORKeyStream(dst[:n], zeroChunk[:n])
		s.produced += uint64(n)
		dst = dst[n:]
	}
	if len(dst) > 0 {
		s.refill()
		s.pos = copy(dst, s.buf[:])
	}
}

// FillUint64 overwrites dst with the next len(dst) little-endian uint64
// draws — the bulk form of a Uint64() loop, consuming exactly 8·len(dst)
// stream bytes. The keystream lands in dst's backing memory; on
// little-endian hosts that already is the protocol value sequence, on
// big-endian hosts each word is byte-swapped in place, so all platforms
// observe the identical draw sequence.
func (s *Stream) FillUint64(dst []uint64) {
	if len(dst) == 0 {
		return
	}
	b := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(dst))), len(dst)*8)
	s.Fill(b)
	if !endian.HostLittle {
		for i := range dst {
			dst[i] = binary.LittleEndian.Uint64(b[i*8:])
		}
	}
}

// FillUint64Masked is FillUint64 with each draw ANDed with mask — the bulk
// form of a Uint64()&mask loop: a uniform ring vector, one word per
// coordinate. (Mask expansion packs its words instead: ring.MaskManyInPlace.)
func (s *Stream) FillUint64Masked(dst []uint64, mask uint64) {
	s.FillUint64(dst)
	for i := range dst {
		dst[i] &= mask
	}
}

var _ io.Reader = (*Stream)(nil)

// Uint64 returns the next 8 stream bytes as a little-endian uint64.
func (s *Stream) Uint64() uint64 {
	var b [8]byte
	s.Read(b[:])
	return binary.LittleEndian.Uint64(b[:])
}

// Uint64n returns a uniform value in [0, n) via unbiased rejection
// sampling (Lemire-style threshold rejection on the modulus).
func (s *Stream) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("prg: Uint64n(0)")
	}
	if n&(n-1) == 0 { // power of two
		return s.Uint64() & (n - 1)
	}
	// Rejection threshold: largest multiple of n that fits in 2^64.
	limit := -n % n // == 2^64 mod n
	for {
		v := s.Uint64()
		if v >= limit {
			return v % n
		}
	}
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Offset returns the logical byte position of the stream: the number of
// keystream bytes a caller has consumed through Read/Fill/typed draws.
// Buffered lookahead does not count — Offset is exactly the index of the
// next byte the stream will hand out.
func (s *Stream) Offset() uint64 {
	return s.produced - uint64(len(s.buf)-s.pos)
}

// Seek repositions the stream so the next byte served is keystream byte
// off. AES-CTR is random access: the counter block for byte off is
// iv + off/BlockSize (a 128-bit big-endian add, wrapping like CTR mode
// itself), and any intra-block remainder is discarded from the refill
// lookahead. Seeking is O(1) plus one buffer refill for unaligned offsets;
// the resulting byte sequence is identical to sequentially consuming the
// first off bytes — golden-tested at every offset class in prg_test.go.
func (s *Stream) Seek(off uint64) {
	blk := off / BlockSize
	var iv [16]byte
	ctrAdd(&iv, s.iv, blk)
	s.ctr = cipher.NewCTR(s.block, iv[:])
	s.produced = blk * BlockSize
	s.pos = len(s.buf) // drop any buffered lookahead
	if rem := int(off % BlockSize); rem > 0 {
		s.refill()
		s.pos = rem
	}
}

// At returns a new independent cursor over the same keystream, positioned
// at byte offset off. The receiver is not advanced or disturbed, so
// distinct segments of one logical stream can be expanded concurrently
// from different goroutines — the basis of range-partitioned mask
// expansion in packages ring and secagg.
func (s *Stream) At(off uint64) *Stream {
	c := new(Stream)
	s.AtInto(c, off)
	return c
}

// AtInto is At re-aiming an existing cursor: c — a zero Stream or one
// aimed at any keystream before — becomes an independent cursor over the
// receiver's keystream at byte offset off. A caller that needs many
// cursors (ring's many-stream mask kernel: one per stream per range) owns
// their storage and pays only the seek, not a Stream per cursor.
func (s *Stream) AtInto(c *Stream, off uint64) {
	c.block, c.iv = s.block, s.iv
	c.Seek(off)
}

// ctrAdd computes dst = iv + n interpreting the 16-byte counter block as a
// big-endian 128-bit integer, wrapping modulo 2^128 — the same carry rule
// cipher.NewCTR applies when incrementing per block.
func ctrAdd(dst *[16]byte, iv [16]byte, n uint64) {
	hi := binary.BigEndian.Uint64(iv[:8])
	lo := binary.BigEndian.Uint64(iv[8:])
	sum := lo + n
	if sum < lo {
		hi++
	}
	binary.BigEndian.PutUint64(dst[:8], hi)
	binary.BigEndian.PutUint64(dst[8:], sum)
}

// Fork derives an independent child stream with domain separation, so a
// single per-round seed can drive many independent sub-streams (one per
// noise component, per chunk, ...) without overlap.
func (s *Stream) Fork(label string) *Stream {
	var material [32]byte
	s.Read(material[:])
	return NewStream(NewSeed([]byte("dordis/prg/fork/"+label), material[:]))
}
