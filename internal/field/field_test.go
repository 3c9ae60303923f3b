package field

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewCanonical(t *testing.T) {
	cases := []struct {
		in   uint64
		want uint64
	}{
		{0, 0},
		{1, 1},
		{Modulus - 1, Modulus - 1},
		{Modulus, 0},
		{Modulus + 1, 1},
		{^uint64(0), (^uint64(0)) % Modulus},
	}
	for _, c := range cases {
		if got := New(c.in).Uint64(); got != c.want {
			t.Errorf("New(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestAddSubRoundTrip(t *testing.T) {
	f := func(a, b uint64) bool {
		x, y := New(a), New(b)
		return Sub(Add(x, y), y) == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNeg(t *testing.T) {
	f := func(a uint64) bool {
		x := New(a)
		return Add(x, Neg(x)) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if Neg(0) != 0 {
		t.Error("Neg(0) != 0")
	}
}

func TestMulMatchesBigIntSemantics(t *testing.T) {
	// Cross-check Mul against repeated addition for small values and
	// against the identity (a*b) mod p computed via 128-bit decomposition.
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		a := New(rng.Uint64())
		b := New(uint64(rng.Intn(1000)))
		want := Element(0)
		for j := uint64(0); j < b.Uint64(); j++ {
			want = Add(want, a)
		}
		if got := Mul(a, b); got != want {
			t.Fatalf("Mul(%d,%d) = %d, want %d", a, b, got, want)
		}
	}
}

func TestMulCommutativeAssociative(t *testing.T) {
	f := func(a, b, c uint64) bool {
		x, y, z := New(a), New(b), New(c)
		if Mul(x, y) != Mul(y, x) {
			return false
		}
		return Mul(Mul(x, y), z) == Mul(x, Mul(y, z))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistributive(t *testing.T) {
	f := func(a, b, c uint64) bool {
		x, y, z := New(a), New(b), New(c)
		return Mul(x, Add(y, z)) == Add(Mul(x, y), Mul(x, z))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInv(t *testing.T) {
	if _, err := Inv(0); err != ErrNotInvertible {
		t.Errorf("Inv(0) error = %v, want ErrNotInvertible", err)
	}
	f := func(a uint64) bool {
		x := New(a)
		if x == 0 {
			return true
		}
		inv, err := Inv(x)
		if err != nil {
			return false
		}
		return Mul(x, inv) == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDivByZero(t *testing.T) {
	if _, err := Div(New(5), 0); err == nil {
		t.Error("Div by zero should error")
	}
}

func TestPow(t *testing.T) {
	if Pow(New(2), 10) != New(1024) {
		t.Errorf("2^10 = %d, want 1024", Pow(New(2), 10))
	}
	if Pow(New(7), 0) != 1 {
		t.Error("x^0 should be 1")
	}
	// Fermat: a^(p-1) = 1 for a != 0.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		a := New(rng.Uint64())
		if a == 0 {
			continue
		}
		if Pow(a, Modulus-1) != 1 {
			t.Fatalf("Fermat violated for %d", a)
		}
	}
}

func TestEvalPoly(t *testing.T) {
	// p(x) = 3 + 2x + x^2 at x=5 → 3 + 10 + 25 = 38.
	coeffs := []Element{New(3), New(2), New(1)}
	if got := EvalPoly(coeffs, New(5)); got != New(38) {
		t.Errorf("EvalPoly = %d, want 38", got)
	}
	if EvalPoly(nil, New(7)) != 0 {
		t.Error("empty polynomial should evaluate to 0")
	}
}

func TestLagrangeRecoversPolynomial(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		deg := 1 + rng.Intn(6)
		coeffs := make([]Element, deg+1)
		for i := range coeffs {
			coeffs[i] = New(rng.Uint64())
		}
		xs := make([]Element, deg+1)
		ys := make([]Element, deg+1)
		for i := range xs {
			xs[i] = New(uint64(i + 1))
			ys[i] = EvalPoly(coeffs, xs[i])
		}
		got, err := LagrangeInterpolateAt(xs, ys, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got != coeffs[0] {
			t.Fatalf("interpolated constant term %d, want %d", got, coeffs[0])
		}
	}
}

func TestLagrangeErrors(t *testing.T) {
	if _, err := LagrangeInterpolateAt([]Element{1, 1}, []Element{2, 3}, 0); err == nil {
		t.Error("duplicate xs should error")
	}
	if _, err := LagrangeInterpolateAt([]Element{1}, []Element{2, 3}, 0); err == nil {
		t.Error("mismatched slice lengths should error")
	}
	if _, err := LagrangeInterpolateAt(nil, nil, 0); err == nil {
		t.Error("empty input should error")
	}
}

func TestRandomElementCanonical(t *testing.T) {
	f := func(b [8]byte) bool {
		return RandomElement(b).Uint64() < Modulus
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkInv(b *testing.B) {
	x := New(0x123456789abcdef)
	for i := 0; i < b.N; i++ {
		x, _ = Inv(x)
	}
	_ = x
}

func TestLagrangeCoefficientsMatchInterpolation(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 1 + int(rng.Uint64()%10)
		xs := make([]Element, n)
		ys := make([]Element, n)
		seen := map[Element]bool{}
		for i := range xs {
			for {
				x := New(rng.Uint64())
				if x != 0 && !seen[x] {
					seen[x] = true
					xs[i] = x
					break
				}
			}
			ys[i] = New(rng.Uint64())
		}
		basis, err := NewLagrangeBasis(xs)
		if err != nil {
			t.Fatal(err)
		}
		at := New(rng.Uint64())
		want, err := LagrangeInterpolateAt(xs, ys, at)
		if err != nil {
			t.Fatal(err)
		}
		ws := basis.WeightsAt(at)
		var got Element
		for i := range ws {
			got = Add(got, Mul(ys[i], ws[i]))
		}
		if got != want {
			t.Fatalf("trial %d: weight dot product %v != interpolation %v", trial, got, want)
		}
		// At an abscissa the weights select that point: a unit vector.
		k := int(rng.Uint64() % uint64(n))
		for i, w := range basis.WeightsAt(xs[k]) {
			var unit Element
			if i == k {
				unit = 1
			}
			if w != unit {
				t.Fatalf("trial %d: weights at xs[%d] are not the unit vector e_%d: w[%d] = %v", trial, k, k, i, w)
			}
		}
	}
	if _, err := NewLagrangeBasis(nil); err == nil {
		t.Error("empty abscissas should error")
	}
	if _, err := NewLagrangeBasis([]Element{1, 1}); err == nil {
		t.Error("duplicate abscissas should error")
	}
}

func TestBatchInv(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	xs := make([]Element, 257)
	for i := range xs {
		for xs[i] == 0 {
			xs[i] = New(rng.Uint64())
		}
	}
	invs, err := BatchInv(xs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		want, err := Inv(xs[i])
		if err != nil || invs[i] != want {
			t.Fatalf("BatchInv[%d] = %v, want %v", i, invs[i], want)
		}
	}
	if out, err := BatchInv(nil); err != nil || len(out) != 0 {
		t.Errorf("BatchInv(nil) = %v, %v", out, err)
	}
	if _, err := BatchInv([]Element{1, 0, 2}); err == nil {
		t.Error("BatchInv with a zero should error")
	}
}

// TestWeightedSumInto checks the deferred-reduction kernel against the
// naive Mul/Add loop, across sizes that straddle the internal tile.
func TestWeightedSumInto(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, tc := range []struct{ k, l int }{
		{0, 5}, {1, 1}, {3, 7}, {8, 1023}, {5, 1024}, {4, 1025}, {6, 5000}, {70, 40},
	} {
		ws := make([]Element, tc.k)
		rows := make([][]Element, tc.k)
		for k := range rows {
			ws[k] = New(rng.Uint64())
			rows[k] = make([]Element, tc.l)
			for i := range rows[k] {
				rows[k][i] = New(rng.Uint64())
			}
		}
		checkWeightedSum(t, fmt.Sprintf("random k=%d l=%d", tc.k, tc.l), ws, rows, tc.l)
	}
}

// TestWeightedSumIntoWorstCase: every weight and every row element is
// p−1, the largest product the 128-bit accumulators must hold, for row
// counts around the four-row pass and the flush point and for tile-tail
// lengths. The result must equal the per-term Mul/Add loop.
func TestWeightedSumIntoWorstCase(t *testing.T) {
	const f = weightedSumFlush
	for _, k := range []int{1, 3, 4, 5, f - 1, f, f + 1, 2*f + 3} {
		for _, l := range []int{1, 7, weightedSumTile - 1, weightedSumTile, weightedSumTile + 1} {
			ws := make([]Element, k)
			rows := make([][]Element, k)
			for i := range rows {
				ws[i] = Element(Modulus - 1)
				rows[i] = make([]Element, l)
				for j := range rows[i] {
					rows[i][j] = Element(Modulus - 1)
				}
			}
			checkWeightedSum(t, fmt.Sprintf("maximal k=%d l=%d", k, l), ws, rows, l)
		}
	}
}

func checkWeightedSum(t *testing.T, name string, ws []Element, rows [][]Element, l int) {
	t.Helper()
	want := make([]Element, l)
	for k := range rows {
		for i := range want {
			want[i] = Add(want[i], Mul(ws[k], rows[k][i]))
		}
	}
	got := make([]Element, l)
	WeightedSumInto(got, ws, rows)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: WeightedSumInto[%d] = %v, want %v", name, i, got[i], want[i])
		}
	}
}
