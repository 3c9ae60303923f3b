// Package field implements arithmetic in the prime field GF(p) with
// p = 2^61 - 1 (a Mersenne prime).
//
// The field is used by the Shamir secret-sharing substrate (package shamir)
// and for sampling noise-component seeds in the XNoise scheme. Elements are
// represented as uint64 values in the canonical range [0, p). The Mersenne
// structure of p admits a fast reduction: for any 122-bit product hi·2^64+lo,
// x mod (2^61-1) is computed with a handful of shifts and adds, with no
// division.
package field

import (
	"errors"
	"fmt"
	"math/bits"
	"unsafe"
)

// Modulus is the field prime p = 2^61 - 1.
const Modulus uint64 = (1 << 61) - 1

// Element is a field element in canonical form (value < Modulus).
type Element uint64

// View returns words as elements sharing their memory, neither copied nor
// reduced: the caller makes every word canonical (below Modulus) before it
// is read as one, as a ring residue of at most 60 bits already is.
func View(words []uint64) []Element {
	return unsafe.Slice((*Element)(unsafe.SliceData(words)), len(words))
}

// Words is View's inverse: elems as their words, sharing their memory.
func Words(elems []Element) []uint64 {
	return unsafe.Slice((*uint64)(unsafe.SliceData(elems)), len(elems))
}

// ErrNotInvertible is returned when attempting to invert zero.
var ErrNotInvertible = errors.New("field: zero has no multiplicative inverse")

// New returns the element congruent to v mod p.
func New(v uint64) Element {
	return Element(reduce64(v))
}

// Uint64 returns the canonical representative of e.
func (e Element) Uint64() uint64 { return uint64(e) }

// String implements fmt.Stringer.
func (e Element) String() string { return fmt.Sprintf("%d", uint64(e)) }

// reduce64 reduces a 64-bit value mod 2^61-1.
func reduce64(v uint64) uint64 {
	// v = hi*2^61 + lo with hi < 2^3.
	v = (v >> 61) + (v & Modulus)
	if v >= Modulus {
		v -= Modulus
	}
	return v
}

// Add returns a + b mod p.
func Add(a, b Element) Element {
	s := uint64(a) + uint64(b) // < 2^62, no overflow
	if s >= Modulus {
		s -= Modulus
	}
	return Element(s)
}

// Sub returns a - b mod p.
func Sub(a, b Element) Element {
	if a >= b {
		return Element(uint64(a) - uint64(b))
	}
	return Element(uint64(a) + Modulus - uint64(b))
}

// Neg returns -a mod p.
func Neg(a Element) Element {
	if a == 0 {
		return 0
	}
	return Element(Modulus - uint64(a))
}

// Mul returns a * b mod p using 128-bit intermediate arithmetic and
// Mersenne reduction.
func Mul(a, b Element) Element {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	// a,b < 2^61 so the product < 2^122: hi < 2^58.
	// product = hi*2^64 + lo = hi*8*2^61 + lo
	//        ≡ hi*8 + (lo >> 61)*1 + (lo & p)  (mod p)   since 2^61 ≡ 1.
	r := (hi << 3) | (lo >> 61) // combined high 61 bits; < 2^61
	s := r + (lo & Modulus)     // < 2^62
	return Element(reduce64(s))
}

// Square returns a² mod p.
func Square(a Element) Element { return Mul(a, a) }

// Pow returns a^e mod p by binary exponentiation.
func Pow(a Element, e uint64) Element {
	result := Element(1)
	base := a
	for e > 0 {
		if e&1 == 1 {
			result = Mul(result, base)
		}
		base = Square(base)
		e >>= 1
	}
	return result
}

// Inv returns the multiplicative inverse of a, computed as a^(p-2) by
// Fermat's little theorem. Inverting zero returns ErrNotInvertible.
func Inv(a Element) (Element, error) {
	if a == 0 {
		return 0, ErrNotInvertible
	}
	return Pow(a, Modulus-2), nil
}

// Div returns a/b mod p. Dividing by zero returns ErrNotInvertible.
func Div(a, b Element) (Element, error) {
	bi, err := Inv(b)
	if err != nil {
		return 0, err
	}
	return Mul(a, bi), nil
}

// EvalPoly evaluates the polynomial with the given coefficients
// (coeffs[0] is the constant term) at point x using Horner's rule.
func EvalPoly(coeffs []Element, x Element) Element {
	if len(coeffs) == 0 {
		return 0
	}
	acc := coeffs[len(coeffs)-1]
	for i := len(coeffs) - 2; i >= 0; i-- {
		acc = Add(Mul(acc, x), coeffs[i])
	}
	return acc
}

// LagrangeInterpolateAt evaluates, at point x, the unique polynomial of
// degree < len(xs) passing through the points (xs[i], ys[i]). The xs must be
// pairwise distinct; otherwise an error is returned. This is the core of
// Shamir reconstruction (x = 0 recovers the secret).
func LagrangeInterpolateAt(xs, ys []Element, x Element) (Element, error) {
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("field: mismatched point slices: %d xs vs %d ys", len(xs), len(ys))
	}
	if len(xs) == 0 {
		return 0, errors.New("field: interpolation requires at least one point")
	}
	for i := range xs {
		for j := i + 1; j < len(xs); j++ {
			if xs[i] == xs[j] {
				return 0, fmt.Errorf("field: duplicate interpolation abscissa %d", xs[i])
			}
		}
	}
	var acc Element
	for i := range xs {
		num := Element(1)
		den := Element(1)
		for j := range xs {
			if j == i {
				continue
			}
			num = Mul(num, Sub(x, xs[j]))
			den = Mul(den, Sub(xs[i], xs[j]))
		}
		li, err := Div(num, den)
		if err != nil {
			return 0, err
		}
		acc = Add(acc, Mul(ys[i], li))
	}
	return acc, nil
}

// LagrangeBasis interpolates polynomials of degree < len(xs) from their
// values at the abscissas xs. The denominators Π_{m≠k}(xs_k − xs_m) do not
// depend on where the polynomial is evaluated, so they are multiplied out
// and inverted (one BatchInv) once per abscissa set; each evaluation point
// then costs one prefix/suffix pass, O(t). K reconstructions over the same
// abscissas — XNoise seed recovery, where the survivor set is identical
// for all K noise seeds, and LightSecAgg's encoding and recovery matrices —
// cost O(t²) + K·O(t) instead of K·O(t²). LagrangeInterpolateAt is its
// scalar oracle.
type LagrangeBasis struct {
	xs   []Element
	dinv []Element // 1 / Π_{m≠k}(xs_k − xs_m)
}

// NewLagrangeBasis builds the basis over xs, which must be non-empty and
// pairwise distinct. The basis keeps xs, so the caller must not change it
// afterwards.
func NewLagrangeBasis(xs []Element) (LagrangeBasis, error) {
	if len(xs) == 0 {
		return LagrangeBasis{}, errors.New("field: interpolation requires at least one point")
	}
	den := make([]Element, len(xs))
	for k, xk := range xs {
		dk := Element(1)
		for m, xm := range xs {
			if m == k {
				continue
			}
			if xk == xm {
				return LagrangeBasis{}, fmt.Errorf("field: duplicate interpolation abscissa %d", xk)
			}
			dk = Mul(dk, Sub(xk, xm))
		}
		den[k] = dk
	}
	dinv, err := BatchInv(den) // every factor is non-zero, so this cannot fail
	if err != nil {
		return LagrangeBasis{}, err
	}
	return LagrangeBasis{xs: xs, dinv: dinv}, nil
}

// WeightsAt returns w_k = Π_{m≠k}(x − xs_m)/(xs_k − xs_m), so that
// f(x) = Σ_k w_k·f(xs_k).
func (b LagrangeBasis) WeightsAt(x Element) []Element {
	ws := make([]Element, len(b.xs))
	below := Element(1) // Π_{m<k}(x − xs_m)
	for k, xk := range b.xs {
		ws[k] = Mul(b.dinv[k], below)
		below = Mul(below, Sub(x, xk))
	}
	above := Element(1) // Π_{m>k}(x − xs_m)
	for k := len(b.xs) - 1; k >= 0; k-- {
		ws[k] = Mul(ws[k], above)
		above = Mul(above, Sub(x, b.xs[k]))
	}
	return ws
}

// BatchInv returns the multiplicative inverse of every element using a
// single modular inversion (Montgomery's trick: prefix products, one Inv,
// unwind). Inversion by Fermat costs ~90 multiplications, so inverting n
// elements drops from 90n multiplications to 3n + 90. Any zero input
// fails the whole batch with ErrNotInvertible.
func BatchInv(xs []Element) ([]Element, error) {
	n := len(xs)
	prefix := make([]Element, n+1)
	prefix[0] = 1
	for i, x := range xs {
		prefix[i+1] = Mul(prefix[i], x)
	}
	inv, err := Inv(prefix[n])
	if err != nil {
		return nil, err
	}
	out := make([]Element, n)
	for i := n - 1; i >= 0; i-- {
		out[i] = Mul(inv, prefix[i])
		inv = Mul(inv, xs[i])
	}
	return out, nil
}

// weightedSumTile bounds the accumulator scratch of WeightedSumInto: the
// two per-element accumulator arrays stay within L1 while piece tiles of
// callers blocking over rows stay within L2.
const weightedSumTile = 1024

// weightedSumFlush is the row count after which WeightedSumInto folds its
// 128-bit accumulators back below p: 64 products of canonical operands,
// each at most (p−1)² < 2^122, plus one folded value below p, stay below
// 2^128. It is a multiple of the kernel's four-row pass.
const weightedSumFlush = 64

// WeightedSumInto sets dst[i] = Σ_k ws[k]·rows[k][i] — the dense
// matrix–vector kernel of LightSecAgg share encoding and aggregate-mask
// recovery. Each rows[k] must be at least len(dst) long.
//
// The inner loop defers reduction: the raw 128-bit products w·r are summed
// into a per-element 128-bit accumulator, four rows per pass over the tile
// (one accumulator load and store per four terms), so a term costs one
// 64×64 multiply and one add-with-carry. Every weightedSumFlush rows the
// accumulators fold back below p, which keeps the sum exact for any row
// count; otherwise each output is reduced once.
func WeightedSumInto(dst []Element, ws []Element, rows [][]Element) {
	if len(ws) != len(rows) {
		panic(fmt.Sprintf("field: %d weights for %d rows", len(ws), len(rows)))
	}
	var accLo, accHi [weightedSumTile]uint64
	for base := 0; base < len(dst); base += weightedSumTile {
		aLo := accLo[:min(len(dst)-base, weightedSumTile)]
		aHi := accHi[:len(aLo)]
		clear(aLo)
		clear(aHi)
		for k := 0; k < len(ws); {
			if k > 0 && k%weightedSumFlush == 0 {
				for t, lo := range aLo {
					aLo[t], aHi[t] = fold128(aHi[t], lo), 0
				}
			}
			if len(ws)-k < 4 {
				w, r := uint64(ws[k]), rows[k][base:][:len(aLo)]
				for t, lo := range aLo {
					h, l := bits.Mul64(w, uint64(r[t]))
					var c uint64
					aLo[t], c = bits.Add64(lo, l, 0)
					aHi[t], _ = bits.Add64(aHi[t], h, c)
				}
				k++
				continue
			}
			w0, w1, w2, w3 := uint64(ws[k]), uint64(ws[k+1]), uint64(ws[k+2]), uint64(ws[k+3])
			r0 := rows[k][base:][:len(aLo)]
			r1 := rows[k+1][base:][:len(aLo)]
			r2 := rows[k+2][base:][:len(aLo)]
			r3 := rows[k+3][base:][:len(aLo)]
			for t, lo := range aLo {
				hi := aHi[t]
				var c uint64
				h, l := bits.Mul64(w0, uint64(r0[t]))
				lo, c = bits.Add64(lo, l, 0)
				hi, _ = bits.Add64(hi, h, c)
				h, l = bits.Mul64(w1, uint64(r1[t]))
				lo, c = bits.Add64(lo, l, 0)
				hi, _ = bits.Add64(hi, h, c)
				h, l = bits.Mul64(w2, uint64(r2[t]))
				lo, c = bits.Add64(lo, l, 0)
				hi, _ = bits.Add64(hi, h, c)
				h, l = bits.Mul64(w3, uint64(r3[t]))
				lo, c = bits.Add64(lo, l, 0)
				hi, _ = bits.Add64(hi, h, c)
				aLo[t], aHi[t] = lo, hi
			}
			k += 4
		}
		out := dst[base:][:len(aLo)]
		for t, lo := range aLo {
			out[t] = Element(fold128(aHi[t], lo))
		}
	}
}

// fold128 reduces the 128-bit value hi·2^64 + lo mod p: its 61-bit limbs
// weigh 1, 2^61 ≡ 1 and 2^122 ≡ 1, so their sum (< 3·2^61) is congruent.
func fold128(hi, lo uint64) uint64 {
	return reduce64((lo & Modulus) + ((lo>>61 | hi<<3) & Modulus) + hi>>58)
}

// RandomElement maps 8 uniformly random bytes to a near-uniform field
// element by rejection-free reduction. The bias is < 2^-58 and is
// irrelevant for seed material.
func RandomElement(b [8]byte) Element {
	v := uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
	return New(v & Modulus) // take low 61 bits then canonicalize
}
