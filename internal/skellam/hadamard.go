package skellam

import (
	"fmt"
	"math"

	"repro/internal/prg"
)

// nextPow2 returns the smallest power of two ≥ n (and ≥ 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// fwht performs the in-place fast Walsh–Hadamard transform of x, whose
// length must be a power of two. The transform is self-inverse up to a
// factor of len(x); callers normalize by 1/sqrt(len) to make it orthonormal.
func fwht(x []float64) {
	n := len(x)
	if n&(n-1) != 0 {
		panic(fmt.Sprintf("skellam: fwht length %d is not a power of two", n))
	}
	for h := 1; h < n; h <<= 1 {
		for i := 0; i < n; i += h << 1 {
			for j := i; j < i+h; j++ {
				a, b := x[j], x[j+h]
				x[j], x[j+h] = a+b, a-b
			}
		}
	}
}

// signDiagonal expands a ±1 diagonal of the given length from the seed,
// as sign bits: entry i is +1 when bit i%64 of word i/64 is set, −1
// otherwise, the words being the seed's stream's first ⌈n/64⌉ Uint64
// draws. All clients of a round share the seed, so they apply the same
// rotation — a requirement for the rotated coordinates to aggregate
// meaningfully.
func signDiagonal(seed prg.Seed, n int) []uint64 {
	s := prg.NewStream(seed)
	d := make([]uint64, (n+63)/64)
	for i := range d {
		d[i] = s.Uint64()
	}
	return d
}

// scaleSigned sets dst[i] = D_i·(src[i]·f), D_i the diagonal's ±1 entry
// i, for i < len(src) ≤ len(dst). A −1 entry flips the product's sign bit:
// exactly what multiplying by −1.0 gives, with no branch on the random
// bits and a shift per entry.
func scaleSigned(dst, src []float64, f float64, diag []uint64) {
	for w := 0; w < len(src); w += 64 {
		neg := ^diag[w/64]
		s := src[w:min(w+64, len(src))]
		d := dst[w : w+len(s)]
		for j, v := range s {
			d[j] = math.Float64frombits(math.Float64bits(v*f) ^ neg<<63)
			neg >>= 1
		}
	}
}

// Rotate applies the seeded randomized Hadamard transform (1/√p)·H·D to x,
// padding to the next power of two p. The returned slice has length p.
//
// The rotation "flattens" the update: after HD, every coordinate is a
// ±-signed sum of all inputs, so coordinate magnitudes concentrate around
// ‖x‖₂/√p regardless of how spiky x was. That is what lets DSkellam bound
// per-coordinate ranges with the signal-bound multiplier k (paper §6.1,
// k = 3).
func Rotate(seed prg.Seed, x []float64) []float64 {
	p := nextPow2(len(x))
	buf := make([]float64, p)
	rotateInto(buf, signDiagonal(seed, p), x, 1)
	return buf
}

// rotateInto overwrites buf with (1/√p)·H·D·(f·x) for the diagonal's sign
// bits diag, p = len(buf) a power of two ≥ len(x).
func rotateInto(buf []float64, diag []uint64, x []float64, f float64) {
	scaleSigned(buf, x, f, diag)
	clear(buf[len(x):])
	fwht(buf)
	inv := 1 / math.Sqrt(float64(len(buf)))
	for i := range buf {
		buf[i] *= inv
	}
}

// Unrotate inverts Rotate, returning the first dim coordinates:
// x = D·H·(1/√p)·y. y is not written.
func Unrotate(seed prg.Seed, y []float64, dim int) []float64 {
	p := len(y)
	if p&(p-1) != 0 {
		panic(fmt.Sprintf("skellam: Unrotate length %d is not a power of two", p))
	}
	buf := make([]float64, p)
	copy(buf, y)
	return unrotateInPlace(buf, signDiagonal(seed, p), dim)
}

// unrotateInPlace overwrites buf (a power-of-two length p) with
// D·H·(1/√p)·buf and returns its first dim coordinates.
func unrotateInPlace(buf []float64, diag []uint64, dim int) []float64 {
	fwht(buf)
	scaleSigned(buf, buf[:dim], 1/math.Sqrt(float64(len(buf))), diag)
	return buf[:dim:dim]
}
