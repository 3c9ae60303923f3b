package shamir

import (
	"crypto/rand"
	"errors"
	"io"
	mrand "math/rand"
	"testing"

	"repro/internal/field"
	"repro/internal/prg"
)

// splitIndexed is Split over the abscissas 1..n.
func splitIndexed(secret field.Element, t, n int, rand io.Reader) ([]Share, error) {
	xs := make([]field.Element, n)
	for i := range xs {
		xs[i] = field.New(uint64(i + 1))
	}
	return Split(secret, t, xs, rand)
}

func TestSplitReconstructExact(t *testing.T) {
	secret := field.New(0xdeadbeefcafe)
	shares, err := splitIndexed(secret, 3, 5, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Reconstruct(shares[:3], 3)
	if err != nil {
		t.Fatal(err)
	}
	if got != secret {
		t.Fatalf("reconstructed %v, want %v", got, secret)
	}
}

func TestReconstructFromAnySubset(t *testing.T) {
	secret := field.New(42424242)
	n, th := 7, 4
	shares, err := splitIndexed(secret, th, n, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	rng := mrand.New(mrand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		perm := rng.Perm(n)
		subset := make([]Share, th)
		for i := 0; i < th; i++ {
			subset[i] = shares[perm[i]]
		}
		got, err := Reconstruct(subset, th)
		if err != nil {
			t.Fatal(err)
		}
		if got != secret {
			t.Fatalf("subset %v reconstructed %v, want %v", perm[:th], got, secret)
		}
	}
}

func TestReconstructWithExtraShares(t *testing.T) {
	secret := field.New(777)
	shares, err := splitIndexed(secret, 2, 5, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Reconstruct(shares, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got != secret {
		t.Fatalf("got %v want %v", got, secret)
	}
}

func TestTooFewShares(t *testing.T) {
	shares, err := splitIndexed(field.New(1), 3, 5, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Reconstruct(shares[:2], 3); !errors.Is(err, ErrTooFewShares) {
		t.Errorf("want ErrTooFewShares, got %v", err)
	}
}

// TestThresholdValidation: Split refuses t outside [1, n] and accepts both
// ends — at t = 1 every share's Y is the secret, and at t = n the n shares
// reconstruct it.
func TestThresholdValidation(t *testing.T) {
	if _, err := splitIndexed(field.New(1), 0, 5, rand.Reader); !errors.Is(err, ErrThreshold) {
		t.Errorf("t=0: want ErrThreshold, got %v", err)
	}
	if _, err := splitIndexed(field.New(1), 6, 5, rand.Reader); !errors.Is(err, ErrThreshold) {
		t.Errorf("t>n: want ErrThreshold, got %v", err)
	}
	secret := field.New(0x5eed)
	shares, err := splitIndexed(secret, 1, 5, rand.Reader)
	if err != nil {
		t.Fatalf("t=1: %v", err)
	}
	for _, sh := range shares {
		if sh.Y != secret {
			t.Errorf("t=1: share at x=%v has Y=%v, want the secret %v", sh.X, sh.Y, secret)
		}
	}
	if shares, err = splitIndexed(secret, 5, 5, rand.Reader); err != nil {
		t.Fatalf("t=n: %v", err)
	}
	if got, err := Reconstruct(shares, 5); err != nil || got != secret {
		t.Errorf("t=n: reconstructed %v (%v), want %v", got, err, secret)
	}
}

func TestZeroAbscissaRejected(t *testing.T) {
	xs := []field.Element{0, 1, 2}
	if _, err := Split(field.New(1), 2, xs, rand.Reader); !errors.Is(err, ErrZeroX) {
		t.Errorf("want ErrZeroX, got %v", err)
	}
}

func TestDuplicateAbscissaRejected(t *testing.T) {
	xs := []field.Element{1, 2, 2}
	if _, err := Split(field.New(1), 2, xs, rand.Reader); !errors.Is(err, ErrDuplicateX) {
		t.Errorf("want ErrDuplicateX, got %v", err)
	}
}

// TestSecrecy checks that t-1 shares are statistically independent of the
// secret in the strongest testable sense: for two different secrets, the
// same polynomial randomness cannot be observed, but any t-1 shares of a
// random secret are consistent with every candidate secret (there exists an
// interpolating polynomial). We verify consistency structurally.
func TestSecrecyDegreesOfFreedom(t *testing.T) {
	secretA := field.New(1111)
	secretB := field.New(999999)
	th := 3
	sharesA, err := splitIndexed(secretA, th, 5, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	// Take t-1 = 2 shares of A; together with (0, secretB) they define a
	// unique degree-2 polynomial — i.e. the observed shares are perfectly
	// consistent with secretB as well.
	xs := []field.Element{0, sharesA[0].X, sharesA[1].X}
	ys := []field.Element{secretB, sharesA[0].Y, sharesA[1].Y}
	// Evaluate that polynomial at a fresh point; existence is what matters.
	if _, err := field.LagrangeInterpolateAt(xs, ys, field.New(100)); err != nil {
		t.Fatalf("t-1 shares not consistent with alternate secret: %v", err)
	}
}

func TestWrongSharesGiveWrongSecret(t *testing.T) {
	secret := field.New(31337)
	shares, err := splitIndexed(secret, 3, 5, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt one share.
	shares[1].Y = field.Add(shares[1].Y, 1)
	got, err := Reconstruct(shares[:3], 3)
	if err != nil {
		t.Fatal(err)
	}
	if got == secret {
		t.Error("corrupted share should not reconstruct the true secret")
	}
}

// TestSplitGolden pins Split's draw order: the t−1 coefficients are the
// next 8·(t−1) bytes of rand, little-endian words in coefficient order, so
// a deterministic reader deals the same shares however the reads are
// batched. The values were captured from the one-read-per-coefficient
// dealer.
func TestSplitGolden(t *testing.T) {
	rnd := prg.NewStream(prg.NewSeed([]byte("shamir-split-golden")))
	shares, err := splitIndexed(field.New(0x1234_5678_9abc), 5, 7, rnd)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{0x129ddae1826cd57d, 0xe8a548c8414e1be, 0x114d7cf5bfd721c8, 0x1c712a1ba8f574a1,
		0x15810a3ac18d360c, 0x60aa3cd9a973e87, 0x1b9d558cd3e7e34b}
	for i, s := range shares {
		if s.X != field.New(uint64(i+1)) || s.Y.Uint64() != want[i] {
			t.Fatalf("share %d = (%v, %d), want (%d, %d)", i, s.X, s.Y.Uint64(), i+1, want[i])
		}
	}
	if next := rnd.Uint64(); next != 0xa55a9b6b7619775a {
		t.Fatalf("Split left the reader at a different offset: next word %#x", next)
	}
}

// TestDealMatchesSplit: one Deal of several secrets gives exactly the
// shares that one Split per secret, in order, gives on the same stream,
// each participant's shares side by side, and leaves the stream where the
// Splits leave it; it refuses a zero or repeated abscissa, ascending or
// not, with Split's errors.
func TestDealMatchesSplit(t *testing.T) {
	secrets := []field.Element{field.New(7), field.New(1 << 60), 0, field.New(424242)}
	xs := []field.Element{3, 1, 4, 9, 5, 2}
	for _, th := range []int{1, 2, 4, 6} {
		seed := prg.NewSeed([]byte("deal-matches-split"), []byte{byte(th)})
		split, deal := prg.NewStream(seed), prg.NewStream(seed)
		table := make([]Share, len(xs)*len(secrets))
		if err := Deal(table, secrets, th, xs, deal); err != nil {
			t.Fatal(err)
		}
		for j, secret := range secrets {
			want, err := Split(secret, th, xs, split)
			if err != nil {
				t.Fatal(err)
			}
			for i := range xs {
				if got := table[i*len(secrets)+j]; got != want[i] {
					t.Fatalf("t=%d: participant %d, secret %d: Deal %v, Split %v", th, i, j, got, want[i])
				}
			}
		}
		if a, b := split.Uint64(), deal.Uint64(); a != b {
			t.Fatalf("t=%d: Deal left the stream at another offset than the Splits (next words %#x, %#x)", th, b, a)
		}
	}
	for _, tc := range []struct {
		xs   []field.Element
		want error
	}{
		{[]field.Element{0, 1, 2}, ErrZeroX},
		{[]field.Element{1, 2, 0}, ErrZeroX},
		{[]field.Element{1, 2, 2}, ErrDuplicateX},
		{[]field.Element{2, 1, 2}, ErrDuplicateX},
	} {
		_, splitErr := Split(field.New(1), 2, tc.xs, rand.Reader)
		dealErr := Deal(make([]Share, 2*len(tc.xs)), secrets[:2], 2, tc.xs, rand.Reader)
		if !errors.Is(dealErr, tc.want) || !errors.Is(splitErr, tc.want) {
			t.Errorf("abscissas %v: Deal %v, Split %v, want %v", tc.xs, dealErr, splitErr, tc.want)
		}
	}
}

// TestReconstructBatch: batch reconstruction over a shared abscissa set
// equals per-secret Reconstruct, and malformed batches are rejected.
func TestReconstructBatch(t *testing.T) {
	const n, tt, k = 12, 7, 9
	sets := make([][]Share, k)
	want := make([]field.Element, k)
	for i := range sets {
		secret := field.New(uint64(31337 * (i + 1)))
		shares, err := splitIndexed(secret, tt, n, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		// Same survivor subset for every secret, as in XNoise recovery.
		sets[i] = shares[2 : 2+tt]
		want[i] = secret
	}
	got, err := ReconstructBatch(sets, tt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("secret %d: batch got %v, want %v", i, got[i], want[i])
		}
		single, err := Reconstruct(sets[i], tt)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != single {
			t.Fatalf("secret %d: batch %v != single %v", i, got[i], single)
		}
	}

	if out, err := ReconstructBatch(nil, tt); err != nil || out != nil {
		t.Errorf("empty batch: got %v, %v", out, err)
	}
	if _, err := ReconstructBatch([][]Share{sets[0][:tt-1]}, tt); err == nil {
		t.Error("too few shares should be rejected")
	}
	// Mismatched abscissa order must be detected, not silently mis-summed.
	bad := append([]Share(nil), sets[1]...)
	bad[0], bad[1] = bad[1], bad[0]
	if _, err := ReconstructBatch([][]Share{sets[0], bad}, tt); err == nil {
		t.Error("abscissa mismatch should be rejected")
	}
}
