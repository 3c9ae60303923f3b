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
)

// Modulus is the field prime p = 2^61 - 1.
const Modulus uint64 = (1 << 61) - 1

// Element is a field element in canonical form (value < Modulus).
type Element uint64

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

// LagrangeCoefficientsAt returns the Lagrange basis coefficients
// l_i = Π_{j≠i} (x - xs[j]) / (xs[i] - xs[j]) for evaluation at x, so that
// the interpolated value is Σ ys[i]·l_i. Computing the coefficients once
// and reusing them across many secrets shared over the same abscissa set
// turns K reconstructions from K·O(t²) multiplications into one O(t²)
// coefficient pass plus K·O(t) dot products — the shape of XNoise seed
// recovery, where the survivor set is identical for all K noise seeds.
//
// The denominators are inverted in a single batch (Montgomery's trick):
// one modular inversion total instead of t.
func LagrangeCoefficientsAt(xs []Element, x Element) ([]Element, error) {
	n := len(xs)
	if n == 0 {
		return nil, errors.New("field: interpolation requires at least one point")
	}
	for i := range xs {
		for j := i + 1; j < n; j++ {
			if xs[i] == xs[j] {
				return nil, fmt.Errorf("field: duplicate interpolation abscissa %d", xs[i])
			}
		}
	}
	num := make([]Element, n) // num[i] = Π_{j≠i} (x - xs[j])
	den := make([]Element, n) // den[i] = Π_{j≠i} (xs[i] - xs[j])
	for i := range xs {
		ni := Element(1)
		di := Element(1)
		for j := range xs {
			if j == i {
				continue
			}
			ni = Mul(ni, Sub(x, xs[j]))
			di = Mul(di, Sub(xs[i], xs[j]))
		}
		num[i] = ni
		den[i] = di
	}
	// Batch-invert the denominators: one Inv total (Montgomery's trick).
	dinv, err := BatchInv(den)
	if err != nil {
		return nil, err // a zero denominator implies duplicate abscissas
	}
	coeffs := make([]Element, n)
	for i := range coeffs {
		coeffs[i] = Mul(num[i], dinv[i])
	}
	return coeffs, nil
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
// three per-element accumulator arrays stay within L1 while piece tiles
// of callers blocking over rows stay within L2.
const weightedSumTile = 1024

// WeightedSumInto sets dst[i] = Σ_k ws[k]·rows[k][i] — the dense
// matrix–vector kernel of LightSecAgg share encoding and aggregate-mask
// recovery. Each rows[k] must be at least len(dst) long.
//
// The inner loop defers reduction: a term w·r < 2^122 is folded to an
// unreduced 62-bit value with the Mersenne identity 2^61 ≡ 1 and added
// into a 128-bit per-element accumulator, so the Σ_k chain costs one
// 64×64 multiply and one carry add per term instead of a full Mul+Add
// (reduce, compare, subtract) — a single reduction per output element,
// exact for any number of rows below 2^62.
func WeightedSumInto(dst []Element, ws []Element, rows [][]Element) {
	if len(ws) != len(rows) {
		panic(fmt.Sprintf("field: %d weights for %d rows", len(ws), len(rows)))
	}
	var accLo, accHi [weightedSumTile]uint64
	for base := 0; base < len(dst); base += weightedSumTile {
		n := len(dst) - base
		if n > weightedSumTile {
			n = weightedSumTile
		}
		for t := 0; t < n; t++ {
			accLo[t], accHi[t] = 0, 0
		}
		aLo, aHi := accLo[:n], accHi[:n]
		for k, w := range ws {
			row := rows[k][base : base+n]
			wv := uint64(w)
			for t, r := range row {
				hi, lo := bits.Mul64(wv, uint64(r))
				// w·r = hi·2^64 + lo ≡ (hi<<3 | lo>>61) + (lo & p) < 2^62.
				s := (hi<<3 | lo>>61) + (lo & Modulus)
				var carry uint64
				aLo[t], carry = bits.Add64(aLo[t], s, 0)
				aHi[t] += carry
			}
		}
		for t := 0; t < n; t++ {
			// acc = accHi·2^64 + accLo ≡ accHi·8 + accLo (mod p); the sum
			// of K unreduced terms keeps accHi ≤ K/4, so accHi·8 cannot
			// overflow and the folded value fits reduce64.
			v := accHi[t]*8 + (accLo[t] >> 61) + (accLo[t] & Modulus)
			dst[base+t] = Element(reduce64(v))
		}
	}
}

// RandomElement maps 8 uniformly random bytes to a near-uniform field
// element by rejection-free reduction. The bias is < 2^-58 and is
// irrelevant for seed material.
func RandomElement(b [8]byte) Element {
	v := uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
	return New(v & Modulus) // take low 61 bits then canonicalize
}
