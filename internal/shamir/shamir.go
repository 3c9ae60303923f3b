// Package shamir implements Shamir's t-out-of-n secret sharing over the
// prime field GF(2^61 - 1).
//
// It is used by the Dordis protocol stack in two places mirroring the paper
// (Fig. 5): SecAgg secret-shares each client's masking key s^SK and
// self-mask seed b_u, and XNoise secret-shares the noise-component seeds
// g_{u,k} so the server can still remove excessive noise when a client drops
// out mid-protocol (§3.2, "Dropout-Resilient Noise Removal with Secret
// Sharing").
//
// A share is bound to a participant index x (a non-zero field element); the
// dealer evaluates a random degree-(t-1) polynomial with constant term equal
// to the secret. Any t shares reconstruct via Lagrange interpolation at 0;
// fewer than t shares reveal nothing (information-theoretically).
package shamir

import (
	"errors"
	"fmt"
	"io"
	"slices"

	"repro/internal/field"
)

// Share is one participant's share of a secret: the evaluation Y of the
// dealer's polynomial at abscissa X.
type Share struct {
	X field.Element
	Y field.Element
}

// Errors returned by the package.
var (
	ErrThreshold    = errors.New("shamir: threshold must satisfy 1 <= t <= n")
	ErrTooFewShares = errors.New("shamir: not enough shares to reconstruct")
	ErrDuplicateX   = errors.New("shamir: duplicate share abscissa")
	ErrZeroX        = errors.New("shamir: share abscissa must be non-zero")
)

// Split shares secret among the participants identified by the non-zero,
// pairwise-distinct abscissas xs, with reconstruction threshold t. Randomness
// for the polynomial coefficients is drawn from rand. It is Deal of the one
// secret into a fresh share list.
func Split(secret field.Element, t int, xs []field.Element, rand io.Reader) ([]Share, error) {
	shares := make([]Share, len(xs))
	if err := Deal(shares, []field.Element{secret}, t, xs, rand); err != nil {
		return nil, err
	}
	return shares, nil
}

// Deal shares every secret of secrets among the participants at the
// non-zero, pairwise-distinct abscissas xs with threshold t, exactly as one
// Split per secret, in order, on the same rand would: a single read draws
// all their coefficients, secret j's t−1 from the j-th run of 8·(t−1)
// bytes, little-endian words in coefficient order. Participant i's share
// of secret j goes to shares[i·len(secrets)+j], which must be that long, so
// each participant's shares lie together in secret order: a dealer's one
// table. Deal allocates the coefficient bytes and one polynomial.
func Deal(shares []Share, secrets []field.Element, t int, xs []field.Element, rand io.Reader) error {
	n, k := len(xs), len(secrets)
	if t < 1 || t > n {
		return fmt.Errorf("%w: t=%d n=%d", ErrThreshold, t, n)
	}
	if len(shares) != n*k {
		return fmt.Errorf("shamir: %d share slots for %d participants × %d secrets", len(shares), n, k)
	}
	// Ascending abscissas, every protocol caller's, are distinct when
	// neighbours differ; any other order is compared pairwise.
	ascending := slices.IsSorted(xs)
	for i, x := range xs {
		if x == 0 {
			return ErrZeroX
		}
		if ascending && i > 0 && xs[i-1] == x || !ascending && slices.Contains(xs[:i], x) {
			return fmt.Errorf("%w: %v", ErrDuplicateX, x)
		}
	}

	// One read for every coefficient: a shared entropy source is one lock
	// hand-off per deal, not one per coefficient or secret, and a
	// deterministic reader yields the same words in the same order.
	coeffs := make([]byte, 8*k*(t-1))
	if _, err := io.ReadFull(rand, coeffs); err != nil {
		return fmt.Errorf("shamir: reading randomness: %w", err)
	}
	poly := make([]field.Element, t)
	for j, secret := range secrets {
		poly[0] = secret
		for c := 1; c < t; c++ {
			poly[c] = field.RandomElement([8]byte(coeffs[8*(j*(t-1)+c-1):]))
		}
		for i, x := range xs {
			shares[i*k+j] = Share{X: x, Y: field.EvalPoly(poly, x)}
		}
	}
	return nil
}

// Reconstruct recovers the secret from at least t shares. Extra shares are
// used (they must be consistent abscissa-wise, i.e. distinct); passing shares
// from different sharings yields garbage, as with any Shamir scheme.
func Reconstruct(shares []Share, t int) (field.Element, error) {
	if len(shares) < t {
		return 0, fmt.Errorf("%w: have %d, need %d", ErrTooFewShares, len(shares), t)
	}
	use := shares[:t]
	xs := make([]field.Element, t)
	ys := make([]field.Element, t)
	for i, s := range use {
		if s.X == 0 {
			return 0, ErrZeroX
		}
		xs[i] = s.X
		ys[i] = s.Y
	}
	v, err := field.LagrangeInterpolateAt(xs, ys, 0)
	if err != nil {
		return 0, fmt.Errorf("shamir: %w", err)
	}
	return v, nil
}

// ReconstructBatch recovers K secrets that were shared over the same
// abscissa set: shareSets[k] holds the shares of secret k, and every set
// must present the same abscissas in the same order (the natural shape
// when one survivor cohort reports shares for many secrets — XNoise seed
// recovery, chunked key reconstruction). The Lagrange-at-zero coefficients
// are computed once from the first t shares and reused across all K
// secrets, turning K·O(t²) work into O(t²) + K·O(t).
func ReconstructBatch(shareSets [][]Share, t int) ([]field.Element, error) {
	if len(shareSets) == 0 {
		return nil, nil
	}
	first := shareSets[0]
	if len(first) < t {
		return nil, fmt.Errorf("%w: have %d, need %d", ErrTooFewShares, len(first), t)
	}
	xs := make([]field.Element, t)
	for i, s := range first[:t] {
		if s.X == 0 {
			return nil, ErrZeroX
		}
		xs[i] = s.X
	}
	basis, err := field.NewLagrangeBasis(xs)
	if err != nil {
		return nil, fmt.Errorf("shamir: %w", err)
	}
	coeffs := basis.WeightsAt(0)
	out := make([]field.Element, len(shareSets))
	for k, shares := range shareSets {
		if len(shares) < t {
			return nil, fmt.Errorf("%w: set %d has %d, need %d", ErrTooFewShares, k, len(shares), t)
		}
		var acc field.Element
		for i, s := range shares[:t] {
			if s.X != xs[i] {
				return nil, fmt.Errorf("shamir: batch abscissa mismatch at set %d index %d: %v vs %v",
					k, i, s.X, xs[i])
			}
			acc = field.Add(acc, field.Mul(s.Y, coeffs[i]))
		}
		out[k] = acc
	}
	return out, nil
}
