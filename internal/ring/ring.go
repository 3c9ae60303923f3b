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
	"fmt"
	"sync"

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
	half := uint64(1) << (v.Bits - 1)
	mod := v.Modulus()
	out := make([]int64, len(v.Data))
	for i, x := range v.Data {
		if x >= half {
			out[i] = int64(x) - int64(mod)
		} else {
			out[i] = int64(x)
		}
	}
	return out
}

// maskScratchLen is the per-chunk element count of the bulk masking path:
// 16 KiB of keystream per chunk amortizes the cipher call while keeping
// scratch, the PRG's zero source, and the vector chunk cache-resident.
const maskScratchLen = 2048

// maskScratch pools keystream chunks so concurrent maskers (the parallel
// unmask workers, the client's per-peer expansion) never allocate per call.
var maskScratch = sync.Pool{New: func() any {
	b := make([]uint64, maskScratchLen)
	return &b
}}

// MaskInPlace adds (sign=+1) or subtracts (sign=-1) a PRG-expanded mask:
// the SecAgg pairwise mask p_{u,v} = γ_{u,v}·PRG(s_{u,v}) or the self mask
// p_u = PRG(b_u). The stream is consumed for exactly Len() 8-byte draws, so
// client and server expansions coincide; the bulk expansion below is
// element-identical to the seed's scalar Uint64()&mask loop.
func (v Vector) MaskInPlace(s *prg.Stream, sign int) error {
	if sign != 1 && sign != -1 {
		return fmt.Errorf("ring: mask sign must be ±1, got %d", sign)
	}
	maskSpan(v.Data, v.Mask(), s, sign)
	return nil
}

// MaskRangeInPlace applies the mask expansion of MaskInPlace to elements
// [lo, hi) only, reading the exact keystream words a full sequential
// expansion would read for that range: element i consumes stream bytes
// [8i, 8i+8) relative to the receiver stream's current offset. The
// receiver stream is NOT advanced — the range is expanded through an
// independent prg.Stream.At cursor — so disjoint ranges of one mask can be
// expanded concurrently from different goroutines and the concatenation is
// byte-identical to one sequential MaskInPlace (golden-tested at every
// segment boundary in ring_test.go). This is the intra-stream parallelism
// primitive behind secagg's segmented mask fan-out.
func (v Vector) MaskRangeInPlace(s *prg.Stream, sign int, lo, hi int) error {
	if sign != 1 && sign != -1 {
		return fmt.Errorf("ring: mask sign must be ±1, got %d", sign)
	}
	if lo < 0 || hi > len(v.Data) || lo > hi {
		return fmt.Errorf("ring: mask range [%d,%d) out of [0,%d)", lo, hi, len(v.Data))
	}
	if lo == hi {
		return nil
	}
	c := s.At(s.Offset() + 8*uint64(lo))
	maskSpan(v.Data[lo:hi], v.Mask(), c, sign)
	return nil
}

// maskSpan is the shared bulk expansion loop of MaskInPlace and
// MaskRangeInPlace: data[i] ±= keystream word i (mod 2^b), in
// scratch-pooled chunks.
func maskSpan(data []uint64, m uint64, s *prg.Stream, sign int) {
	sp := maskScratch.Get().(*[]uint64)
	full := *sp
	for len(data) > 0 {
		n := len(data)
		if n > maskScratchLen {
			n = maskScratchLen
		}
		ks := full[:n]
		s.FillUint64(ks)
		chunk := data[:n:n]
		// (x ± (k&m)) & m == (x ± k) & m: carries/borrows propagate upward
		// only, so the raw keystream word adds without pre-masking.
		if sign == 1 {
			i := 0
			for ; i+4 <= len(chunk); i += 4 {
				chunk[i] = (chunk[i] + ks[i]) & m
				chunk[i+1] = (chunk[i+1] + ks[i+1]) & m
				chunk[i+2] = (chunk[i+2] + ks[i+2]) & m
				chunk[i+3] = (chunk[i+3] + ks[i+3]) & m
			}
			for ; i < len(chunk); i++ {
				chunk[i] = (chunk[i] + ks[i]) & m
			}
		} else {
			i := 0
			for ; i+4 <= len(chunk); i += 4 {
				chunk[i] = (chunk[i] - ks[i]) & m
				chunk[i+1] = (chunk[i+1] - ks[i+1]) & m
				chunk[i+2] = (chunk[i+2] - ks[i+2]) & m
				chunk[i+3] = (chunk[i+3] - ks[i+3]) & m
			}
			for ; i < len(chunk); i++ {
				chunk[i] = (chunk[i] - ks[i]) & m
			}
		}
		data = data[n:]
	}
	maskScratch.Put(sp)
}

// AddManyInPlace sets v += Σ os (mod 2^b) in cache-friendly blocks: each
// block of v is kept hot while every addend streams through it once, so the
// accumulator's cache lines are touched once per block rather than once per
// vector.
func (v Vector) AddManyInPlace(os []Vector) error {
	return v.fusedManyInPlace(os, 1)
}

// SubManyInPlace sets v -= Σ os (mod 2^b), the removal-side dual of
// AddManyInPlace.
func (v Vector) SubManyInPlace(os []Vector) error {
	return v.fusedManyInPlace(os, -1)
}

// fusedBlock is the accumulator block size of the fused many-vector loops:
// 16 KiB of accumulator stays L1-resident across all addend passes.
const fusedBlock = 2048

func (v Vector) fusedManyInPlace(os []Vector, sign int) error {
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
			if sign == 1 {
				for i := range acc {
					acc[i] = (acc[i] + src[i]) & m
				}
			} else {
				for i := range acc {
					acc[i] = (acc[i] - src[i]) & m
				}
			}
		}
	}
	return nil
}

// Sum aggregates vectors element-wise mod 2^b into a fresh vector. At least
// one vector is required (it fixes the width and dimension).
func Sum(vs []Vector) (Vector, error) {
	if len(vs) == 0 {
		return Vector{}, fmt.Errorf("ring: Sum of zero vectors")
	}
	acc := vs[0].Clone()
	if err := acc.AddManyInPlace(vs[1:]); err != nil {
		return Vector{}, err
	}
	return acc, nil
}

// ChunkBounds returns the element ranges [start,end) for splitting a vector
// of dimension dim into m nearly equal chunks (the first dim%m chunks get
// one extra element). It is the single source of truth for chunk geometry
// so that clients and server partition identically.
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
	extra := dim % m
	bounds := make([][2]int, m)
	start := 0
	for i := 0; i < m; i++ {
		size := base
		if i < extra {
			size++
		}
		bounds[i] = [2]int{start, start + size}
		start += size
	}
	return bounds
}

// Split divides v into m chunks per ChunkBounds. Chunks share the
// underlying storage (a chunk write is visible in v), which is what the
// pipeline wants: chunk aggregation assembles the final vector in place.
func Split(v Vector, m int) []Vector {
	bounds := ChunkBounds(v.Len(), m)
	out := make([]Vector, len(bounds))
	for i, b := range bounds {
		out[i] = Vector{Bits: v.Bits, Data: v.Data[b[0]:b[1]]}
	}
	return out
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
