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

// signDiagonal expands a ±1 diagonal of the given length from the seed.
// All clients of a round share the seed, so they apply the same rotation —
// a requirement for the rotated coordinates to aggregate meaningfully.
func signDiagonal(seed prg.Seed, n int) []float64 {
	s := prg.NewStream(seed)
	d := make([]float64, n)
	var word uint64
	bits := 0
	for i := range d {
		if bits == 0 {
			word = s.Uint64()
			bits = 64
		}
		if word&1 == 1 {
			d[i] = 1
		} else {
			d[i] = -1
		}
		word >>= 1
		bits--
	}
	return d
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

// rotateInto overwrites buf with (1/√p)·H·D·(f·x) for the expanded diagonal
// diag, p = len(buf) = len(diag) a power of two ≥ len(x).
func rotateInto(buf, diag, x []float64, f float64) {
	for i, v := range x {
		buf[i] = v * f * diag[i]
	}
	clear(buf[len(x):])
	fwht(buf)
	inv := 1 / math.Sqrt(float64(len(buf)))
	for i := range buf {
		buf[i] *= inv
	}
}

// Unrotate inverts Rotate, returning the first dim coordinates:
// x = D·H·(1/√p)·y.
func Unrotate(seed prg.Seed, y []float64, dim int) []float64 {
	p := len(y)
	if p&(p-1) != 0 {
		panic(fmt.Sprintf("skellam: Unrotate length %d is not a power of two", p))
	}
	buf := make([]float64, p)
	copy(buf, y)
	fwht(buf)
	inv := 1 / math.Sqrt(float64(p))
	d := signDiagonal(seed, p)
	out := make([]float64, dim)
	for i := 0; i < dim; i++ {
		out[i] = buf[i] * inv * d[i]
	}
	return out
}
