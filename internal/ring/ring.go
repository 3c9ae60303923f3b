// Package ring implements fixed-width modular vector arithmetic in ℤ_{2^b},
// the input space of secure aggregation (paper Fig. 5: "Z_m^R is the space
// from which inputs are sampled").
//
// Model updates are DSkellam-encoded into integer vectors mod 2^b (b = 20 in
// the paper's configuration). Pairwise masks, self masks, and noise all add
// in this ring; wrap-around is intentional and is undone by the DSkellam
// decoder's centering step. The package also provides the chunk
// split/concatenate primitives that Dordis's pipeline uses to divide a
// model update Δ_i into m chunks Δ_i,1..Δ_i,m (§4.1, "Pipelining via Task
// Partitioning").
package ring

import (
	"encoding/binary"
	"fmt"
	"sync"
	"unsafe"

	"repro/internal/prg"
)

// Vector is a ℤ_{2^b} vector together with its bit width. All element values
// are kept reduced mod 2^b.
type Vector struct {
	Bits uint // b, in [1, 63]
	Data []uint64
}

// NewVector returns a zero vector of the given dimension and bit width.
func NewVector(bits uint, dim int) Vector {
	if bits < 1 || bits > 63 {
		panic(fmt.Sprintf("ring: bit width %d out of [1,63]", bits))
	}
	return Vector{Bits: bits, Data: make([]uint64, dim)}
}

// Mask returns the value mask 2^b - 1.
func (v Vector) Mask() uint64 { return (uint64(1) << v.Bits) - 1 }

// Modulus returns 2^b.
func (v Vector) Modulus() uint64 { return uint64(1) << v.Bits }

// Len returns the dimension.
func (v Vector) Len() int { return len(v.Data) }

// Clone returns a deep copy.
func (v Vector) Clone() Vector {
	out := Vector{Bits: v.Bits, Data: make([]uint64, len(v.Data))}
	copy(out.Data, v.Data)
	return out
}

func (v Vector) compatible(o Vector) error {
	if v.Bits != o.Bits {
		return fmt.Errorf("ring: bit width mismatch %d vs %d", v.Bits, o.Bits)
	}
	if len(v.Data) != len(o.Data) {
		return fmt.Errorf("ring: dimension mismatch %d vs %d", len(v.Data), len(o.Data))
	}
	return nil
}

// AddInPlace sets v += o (mod 2^b).
func (v Vector) AddInPlace(o Vector) error {
	if err := v.compatible(o); err != nil {
		return err
	}
	m := v.Mask()
	for i := range v.Data {
		v.Data[i] = (v.Data[i] + o.Data[i]) & m
	}
	return nil
}

// SubInPlace sets v -= o (mod 2^b).
func (v Vector) SubInPlace(o Vector) error {
	if err := v.compatible(o); err != nil {
		return err
	}
	m := v.Mask()
	for i := range v.Data {
		v.Data[i] = (v.Data[i] - o.Data[i]) & m
	}
	return nil
}

// AddBytesLE sets v += o (mod 2^b) for an addend given as its wire bytes:
// len(v.Data) little-endian 64-bit words, at any alignment. It is how the
// server folds a masked input straight from its frame — no per-client
// vector is materialised — and it reads the bytes with plain
// little-endian loads, so it is correct on any host. Words are reduced
// with the sum, as AddInPlace reduces an unreduced addend.
func (v Vector) AddBytesLE(o []byte) error {
	if len(o) != 8*len(v.Data) {
		return fmt.Errorf("ring: addend of %d bytes vs dimension %d", len(o), len(v.Data))
	}
	m := v.Mask()
	data := v.Data
	// Four words a turn on fixed-size windows: the bounds checks hoist out
	// and the loop runs at AddInPlace's pace (1.0 against 1.7 ns a word).
	for len(data) >= 4 {
		d, w := data[:4], o[:32]
		d[0] = (d[0] + binary.LittleEndian.Uint64(w[0:])) & m
		d[1] = (d[1] + binary.LittleEndian.Uint64(w[8:])) & m
		d[2] = (d[2] + binary.LittleEndian.Uint64(w[16:])) & m
		d[3] = (d[3] + binary.LittleEndian.Uint64(w[24:])) & m
		data, o = data[4:], o[32:]
	}
	for i := range data {
		data[i] = (data[i] + binary.LittleEndian.Uint64(o[8*i:])) & m
	}
	return nil
}

// AddSignedInPlace adds a signed integer vector (e.g. discrete noise)
// element-wise mod 2^b.
func (v Vector) AddSignedInPlace(noise []int64) error {
	if len(noise) != len(v.Data) {
		return fmt.Errorf("ring: noise dimension %d vs %d", len(noise), len(v.Data))
	}
	m := v.Mask()
	for i := range v.Data {
		v.Data[i] = (v.Data[i] + uint64(noise[i])) & m
	}
	return nil
}

// AddSignedVia adds a signed integer vector that add accumulates straight
// into v's own memory, read as int64 words, then reduces v mod 2^b once —
// the residues AddSignedInPlace of the accumulated total would give,
// without a buffer for the total (two's-complement addition wraps mod
// 2^64, a multiple of 2^b). add must only add into its argument, as
// xnoise's AddTotalNoise does. On error v holds garbage.
func (v Vector) AddSignedVia(add func(acc []int64) error) error {
	acc := unsafe.Slice((*int64)(unsafe.Pointer(unsafe.SliceData(v.Data))), len(v.Data))
	if err := add(acc); err != nil {
		return err
	}
	m := v.Mask()
	for i := range v.Data {
		v.Data[i] &= m
	}
	return nil
}

// SubSignedInPlace subtracts a signed integer vector element-wise mod 2^b.
// This is the server-side XNoise removal primitive.
func (v Vector) SubSignedInPlace(noise []int64) error {
	if len(noise) != len(v.Data) {
		return fmt.Errorf("ring: noise dimension %d vs %d", len(noise), len(v.Data))
	}
	m := v.Mask()
	for i := range v.Data {
		v.Data[i] = (v.Data[i] - uint64(noise[i])) & m
	}
	return nil
}

// Centered returns the elements reinterpreted as signed residues in
// [-2^(b-1), 2^(b-1)): the DSkellam decoder's centering step.
func (v Vector) Centered() []int64 {
	out := make([]int64, len(v.Data))
	for i := range v.Data {
		out[i] = v.CenteredAt(i)
	}
	return out
}

// CenteredAt is element i of Centered.
func (v Vector) CenteredAt(i int) int64 {
	x := v.Data[i]
	if x >= 1<<(v.Bits-1) {
		return int64(x) - int64(v.Modulus())
	}
	return int64(x)
}

// maskBlockWords is the keystream quantum of the mask kernel: 8 KiB of
// keystream, the packed sum of as much, and the maskBlockWords·per
// coordinates they cover stay L1-resident while every stream of a
// many-stream call passes through them.
const maskBlockWords = 1024

// maskState is the kernel's working memory, pooled so concurrent maskers
// (secagg's range workers, one client per goroutine) allocate per call
// only what aiming a stream or a cursor costs (prg.Stream.Seek).
type maskState struct {
	sum, ks [maskBlockWords]uint64 // the block in hand: packed sum, one stream's words
	cursors []prg.Stream           // MaskManyInPlace's cursors for a range past 0, re-aimed per call
	cur     []Mask                 // the streams as the kernel takes them
}

var maskStates = sync.Pool{New: func() any { return new(maskState) }}

// maskPer returns per = ⌊64/b⌋, the number of coordinates the mask
// expansion reads from each 64-bit keystream word: coordinate i of a mask
// is bits [b·(i mod per), b·(i mod per)+b) of word ⌊i/per⌋, so a mask of n
// coordinates consumes ⌈n/per⌉ words. Widths above 32 get per = 1, one
// word per coordinate. The layout is part of the protocol (PROTOCOL.md,
// "Mask expansion"): both ends of a mask must expand it identically.
func maskPer(bits uint) int { return int(64 / bits) }

// MaskBlockLen returns the coordinate count of one kernel block at the
// given width. Callers that split one expansion into concurrent ranges
// (MaskManyInPlace) cut at multiples of it, so no two ranges share a
// keystream word or a block.
func MaskBlockLen(bits uint) int { return maskBlockWords * maskPer(bits) }

// MaskBytes returns the keystream bytes a mask of dim coordinates at the
// given width reads: ⌈dim/per⌉ words of 8 bytes.
func MaskBytes(bits uint, dim int) uint64 {
	per := maskPer(bits)
	return 8 * uint64((dim+per-1)/per)
}

// Mask is one signed PRG expansion Sign·PRG(Stream), Sign = ±1: the SecAgg
// pairwise mask p_{u,v} = γ_{u,v}·PRG(s_{u,v}) or the self mask
// p_u = PRG(b_u). Its first word is keystream byte Off of the stream — an
// absolute offset, wherever the stream stands — so the masks of several
// vectors can be windows of one keyed stream (secagg's sub-round windows,
// laid end to end).
type Mask struct {
	Stream *prg.Stream
	Sign   int
	Off    uint64
}

func checkMaskSign(sign int) error {
	if sign != 1 && sign != -1 {
		return fmt.Errorf("ring: mask sign must be ±1, got %d", sign)
	}
	return nil
}

// MaskInPlace adds (sign=+1) or subtracts (sign=-1) the PRG-expanded mask
// of s over the whole vector, in the packed layout of maskPer. The stream
// is advanced by exactly ⌈Len()/per⌉ 8-byte words, so client and server
// expansions coincide.
func (v Vector) MaskInPlace(s *prg.Stream, sign int) error {
	if err := checkMaskSign(sign); err != nil {
		return err
	}
	st := maskStates.Get().(*maskState)
	st.maskBlocks(v.Data, v.Bits, []Mask{{Stream: s, Sign: sign}}, 0)
	maskStates.Put(st)
	return nil
}

// MaskManyInPlace accumulates Σ_k Sign_k·PRG(Stream_k) into elements
// [lo, hi), reading the keystream words a whole MaskInPlace of each stream
// would read for that range from keystream byte Off_k on: element i takes
// its bits from the word at byte Off_k + 8·⌊i/per⌋, and lo and hi need not
// be multiples of per. It runs block by block — a block of v stays in
// cache while every stream passes through it — so v is streamed through
// memory once however many masks there are.
//
// The range that starts at 0 draws from the streams themselves, seeking
// one only when its Offset is not Off_k, and leaves each just past the
// last word it read: a caller whose next call reads the next window of the
// same streams (secagg's chunks) keys each stream once, not once per call.
// Every other range expands through cursors of its own (prg.Stream.AtInto),
// which read only a stream's key, so disjoint ranges of one set of masks
// may run concurrently and their concatenation equals applying the masks
// whole, one by one — the primitive under secagg's range-partitioned
// fan-out. No stream may appear twice in masks.
func (v Vector) MaskManyInPlace(masks []Mask, lo, hi int) error {
	for _, mk := range masks {
		if err := checkMaskSign(mk.Sign); err != nil {
			return err
		}
	}
	if lo < 0 || hi > len(v.Data) || lo > hi {
		return fmt.Errorf("ring: mask range [%d,%d) out of [0,%d)", lo, hi, len(v.Data))
	}
	if lo == hi || len(masks) == 0 {
		return nil
	}
	per := maskPer(v.Bits)
	st := maskStates.Get().(*maskState)
	if len(st.cur) < len(masks) {
		st.cur = make([]Mask, len(masks))
	}
	cur := st.cur[:len(masks)]
	if lo == 0 {
		for k, mk := range masks {
			if mk.Stream.Offset() != mk.Off {
				mk.Stream.Seek(mk.Off)
			}
			cur[k] = Mask{Stream: mk.Stream, Sign: mk.Sign}
		}
	} else {
		if len(st.cursors) < len(masks) {
			st.cursors = make([]prg.Stream, len(masks))
		}
		for k, mk := range masks {
			mk.Stream.AtInto(&st.cursors[k], mk.Off+8*uint64(lo/per))
			cur[k] = Mask{Stream: &st.cursors[k], Sign: mk.Sign}
		}
	}
	st.maskBlocks(v.Data[lo:hi], v.Bits, cur, lo%per)
	clear(cur) // the pool must not keep the caller's streams alive
	maskStates.Put(st)
	return nil
}

// maskBlocks is the one mask-expansion kernel. data[0] is coordinate skip
// (< per) of the keystream word every stream of cur is aimed at; each
// block of up to maskBlockWords words is drawn from every stream in turn,
// leaving each just past the last word it read. Within a block the
// streams are summed while still packed — one field-wise addition per
// word, not one addition per coordinate — and the sum is unpacked into
// data once, so a stream costs little more than its keystream.
func (st *maskState) maskBlocks(data []uint64, bits uint, cur []Mask, skip int) {
	per := maskPer(bits)
	// top has the top bit of every field set. Adding the fields without it
	// cannot carry across a field boundary; it is then added back by xor.
	var top, negs uint64
	for j := 0; j < per; j++ {
		top |= 1 << (bits*uint(j) + bits - 1)
	}
	for _, c := range cur {
		if c.Sign < 0 {
			negs++
		}
	}
	for len(data) > 0 {
		n := min(len(data), maskBlockWords*per-skip)
		words := (skip + n + per - 1) / per
		sum, ks := st.sum[:words], st.ks[:words]
		for k, c := range cur {
			// −x = ^x + 1 in every field: a subtracted stream adds its
			// complement here, and the +1s (negs of them) are added with
			// the unpacking.
			var flip uint64
			if c.Sign < 0 {
				flip = ^uint64(0)
			}
			if k == 0 {
				c.Stream.FillUint64(sum)
				if flip != 0 {
					for i := range sum {
						sum[i] = ^sum[i]
					}
				}
				continue
			}
			c.Stream.FillUint64(ks)
			for i, w := range ks {
				x, y := sum[i], w^flip
				sum[i] = ((x &^ top) + (y &^ top)) ^ ((x ^ y) & top)
			}
		}
		foldWords(data[:n], sum, bits, skip, negs)
		data = data[n:]
		skip = 0
	}
}

// foldWords sets data[i] += inc + coordinate skip+i of the packed words ks
// (mod 2^b). A field is added without isolating it first: its upper
// neighbours only reach bits the final mask clears.
func foldWords(data, ks []uint64, bits uint, skip int, inc uint64) {
	per := maskPer(bits)
	m := uint64(1)<<bits - 1
	if skip > 0 {
		n := min(per-skip, len(data))
		foldWord(data[:n], ks[0]>>(bits*uint(skip)), bits, m, inc)
		data, ks = data[n:], ks[1:]
	}
	full := len(data) / per
	// Masking the shift counts lets the compiler drop its ≥64 guards; the
	// only count that reaches 64 is Bits = 64, where per = 1 never shifts.
	s1, s2, s3 := bits&63, 2*bits&63, 3*bits&63
	switch per {
	case 1:
		for i, w := range ks[:full] {
			data[i] = (data[i] + w + inc) & m
		}
	case 2:
		for i, w := range ks[:full] {
			d := data[2*i : 2*i+2 : 2*i+2]
			d[0] = (d[0] + w + inc) & m
			d[1] = (d[1] + w>>s1 + inc) & m
		}
	case 3:
		for i, w := range ks[:full] {
			d := data[3*i : 3*i+3 : 3*i+3]
			d[0] = (d[0] + w + inc) & m
			d[1] = (d[1] + w>>s1 + inc) & m
			d[2] = (d[2] + w>>s2 + inc) & m
		}
	case 4:
		for i, w := range ks[:full] {
			d := data[4*i : 4*i+4 : 4*i+4]
			d[0] = (d[0] + w + inc) & m
			d[1] = (d[1] + w>>s1 + inc) & m
			d[2] = (d[2] + w>>s2 + inc) & m
			d[3] = (d[3] + w>>s3 + inc) & m
		}
	default:
		for i, w := range ks[:full] {
			foldWord(data[i*per:i*per+per], w, bits, m, inc)
		}
	}
	if tail := data[full*per:]; len(tail) > 0 {
		foldWord(tail, ks[full], bits, m, inc)
	}
}

// foldWord folds the leading len(d) fields of w into d: the words a range
// enters or leaves mid-way, and every word of the widths foldWords does not
// unroll.
func foldWord(d []uint64, w uint64, bits uint, m, inc uint64) {
	for j := range d {
		d[j] = (d[j] + w + inc) & m
		w >>= bits
	}
}

// fusedBlock is the accumulator block size of AddManyInPlace: 16 KiB of
// accumulator stays L1-resident across all addend passes.
const fusedBlock = 2048

// AddManyInPlace sets v += Σ os (mod 2^b) in cache-friendly blocks: each
// block of v is kept hot while every addend streams through it once, so the
// accumulator's cache lines are touched once per block rather than once per
// vector.
func (v Vector) AddManyInPlace(os []Vector) error {
	for _, o := range os {
		if err := v.compatible(o); err != nil {
			return err
		}
	}
	m := v.Mask()
	for start := 0; start < len(v.Data); start += fusedBlock {
		end := start + fusedBlock
		if end > len(v.Data) {
			end = len(v.Data)
		}
		acc := v.Data[start:end]
		for _, o := range os {
			src := o.Data[start:end]
			for i := range acc {
				acc[i] = (acc[i] + src[i]) & m
			}
		}
	}
	return nil
}

// ChunkBounds returns the element ranges [start,end) for splitting a vector
// of dimension dim into m nearly equal chunks (the last dim%m chunks get
// one extra element, so no chunk is shorter than the one before it — the
// order secagg's end-to-end mask windows need). It is the single source of
// truth for chunk geometry so that clients and server partition
// identically.
func ChunkBounds(dim, m int) [][2]int {
	if m < 1 {
		m = 1
	}
	if m > dim && dim > 0 {
		m = dim
	}
	if dim == 0 {
		return [][2]int{{0, 0}}
	}
	base := dim / m
	short := m - dim%m // chunks of base elements; the rest get base+1
	bounds := make([][2]int, m)
	start := 0
	for i := 0; i < m; i++ {
		size := base
		if i >= short {
			size++
		}
		bounds[i] = [2]int{start, start + size}
		start += size
	}
	return bounds
}

// Concat assembles chunks back into one vector (copying).
func Concat(chunks []Vector) (Vector, error) {
	if len(chunks) == 0 {
		return Vector{}, fmt.Errorf("ring: Concat of zero chunks")
	}
	bits := chunks[0].Bits
	total := 0
	for _, c := range chunks {
		if c.Bits != bits {
			return Vector{}, fmt.Errorf("ring: Concat bit width mismatch")
		}
		total += c.Len()
	}
	out := NewVector(bits, total)
	pos := 0
	for _, c := range chunks {
		copy(out.Data[pos:], c.Data)
		pos += c.Len()
	}
	return out, nil
}

// Equal reports whether two vectors have identical width and contents.
func Equal(a, b Vector) bool {
	if a.Bits != b.Bits || len(a.Data) != len(b.Data) {
		return false
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			return false
		}
	}
	return true
}
