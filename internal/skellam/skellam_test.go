package skellam

import (
	"math"
	"testing"

	"repro/internal/prg"
	"repro/internal/ring"
	"repro/internal/rng"
)

func testParams(dim, n int) Params {
	scale, err := ChooseScale(dim, 1.0, 20, n, 0.05, 3)
	if err != nil {
		panic(err)
	}
	return Params{
		Dim:          dim,
		Bits:         20,
		Clip:         1.0,
		Scale:        scale,
		Beta:         math.Exp(-0.5),
		K:            3,
		NumClients:   n,
		RotationSeed: prg.NewSeed([]byte("round-42")),
	}
}

func l2(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

func randomUpdate(s *prg.Stream, dim int, norm float64) []float64 {
	x := make([]float64, dim)
	rng.GaussianVector(s, 1, x)
	f := norm / l2(x)
	for i := range x {
		x[i] *= f
	}
	return x
}

func TestFWHTSelfInverse(t *testing.T) {
	x := []float64{1, -2, 3, 0.5, -1, 2, 0, 7}
	y := append([]float64(nil), x...)
	fwht(y)
	fwht(y)
	for i := range x {
		if math.Abs(y[i]/float64(len(x))-x[i]) > 1e-12 {
			t.Fatalf("FWHT not self-inverse at %d: %v vs %v", i, y[i]/8, x[i])
		}
	}
}

func TestFWHTRequiresPow2(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("fwht on non-power-of-two should panic")
		}
	}()
	fwht(make([]float64, 3))
}

func TestRotateUnrotateRoundTrip(t *testing.T) {
	seed := prg.NewSeed([]byte("rot"))
	for _, dim := range []int{1, 2, 5, 16, 100, 1000} {
		s := prg.NewStream(prg.NewSeed([]byte("x")))
		x := randomUpdate(s, dim, 1)
		y := Rotate(seed, x)
		if len(y) != nextPow2(dim) {
			t.Fatalf("rotated length %d, want %d", len(y), nextPow2(dim))
		}
		back := Unrotate(seed, y, dim)
		for i := range x {
			if math.Abs(back[i]-x[i]) > 1e-10 {
				t.Fatalf("dim %d: round trip mismatch at %d: %v vs %v", dim, i, back[i], x[i])
			}
		}
	}
}

func TestRotatePreservesNorm(t *testing.T) {
	seed := prg.NewSeed([]byte("norm"))
	s := prg.NewStream(prg.NewSeed([]byte("y")))
	x := randomUpdate(s, 777, 3.0)
	y := Rotate(seed, x)
	if math.Abs(l2(y)-3.0) > 1e-9 {
		t.Fatalf("rotation should preserve L2 norm: %v", l2(y))
	}
}

func TestRotateFlattens(t *testing.T) {
	// A spike vector becomes flat after rotation: max coordinate close to
	// norm/sqrt(p) rather than norm.
	seed := prg.NewSeed([]byte("flat"))
	dim := 1024
	x := make([]float64, dim)
	x[17] = 5.0
	y := Rotate(seed, x)
	maxAbs := 0.0
	for _, v := range y {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	want := 5.0 / math.Sqrt(float64(dim))
	if math.Abs(maxAbs-want) > 1e-9 {
		t.Fatalf("spike should flatten to %v, got max %v", want, maxAbs)
	}
}

func TestValidate(t *testing.T) {
	good := testParams(10, 4)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Params{
		{Dim: 0, Bits: 20, Clip: 1, Scale: 1, Beta: 0.5, K: 3, NumClients: 1},
		{Dim: 1, Bits: 1, Clip: 1, Scale: 1, Beta: 0.5, K: 3, NumClients: 1},
		{Dim: 1, Bits: 20, Clip: 0, Scale: 1, Beta: 0.5, K: 3, NumClients: 1},
		{Dim: 1, Bits: 20, Clip: 1, Scale: 0, Beta: 0.5, K: 3, NumClients: 1},
		{Dim: 1, Bits: 20, Clip: 1, Scale: 1, Beta: 1.5, K: 3, NumClients: 1},
		{Dim: 1, Bits: 20, Clip: 1, Scale: 1, Beta: 0.5, K: 0, NumClients: 1},
		{Dim: 1, Bits: 20, Clip: 1, Scale: 1, Beta: 0.5, K: 3, NumClients: 0},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestEncodeDecodeSingleClient(t *testing.T) {
	p := testParams(50, 1)
	s := prg.NewStream(prg.NewSeed([]byte("client")))
	x := randomUpdate(s, p.Dim, 0.8)
	enc, err := Encode(p, x, s.Fork("round"))
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(p, enc)
	if err != nil {
		t.Fatal(err)
	}
	// Quantization error per coordinate is O(1/scale) after rotation.
	var errNorm float64
	for i := range x {
		d := dec[i] - x[i]
		errNorm += d * d
	}
	errNorm = math.Sqrt(errNorm)
	if errNorm > 0.05 {
		t.Fatalf("decode error norm %v too large (scale %v)", errNorm, p.Scale)
	}
}

func TestEncodeClipsLargeUpdates(t *testing.T) {
	p := testParams(30, 1)
	s := prg.NewStream(prg.NewSeed([]byte("big")))
	x := randomUpdate(s, p.Dim, 50.0) // far above clip bound 1
	enc, err := Encode(p, x, s.Fork("r"))
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(p, enc)
	if err != nil {
		t.Fatal(err)
	}
	norm := l2(dec)
	if norm > p.Clip*1.1 {
		t.Fatalf("decoded norm %v exceeds clip bound %v", norm, p.Clip)
	}
	// Direction preserved: cosine similarity with x high.
	var dot float64
	for i := range x {
		dot += dec[i] * x[i]
	}
	cos := dot / (norm * l2(x))
	if cos < 0.99 {
		t.Fatalf("clipping should preserve direction, cos=%v", cos)
	}
}

func TestAggregationLinearity(t *testing.T) {
	// Sum of encodings decodes to (approximately) the sum of clipped
	// updates — the property secure aggregation depends on.
	const n = 8
	p := testParams(64, n)
	master := prg.NewStream(prg.NewSeed([]byte("agg")))
	want := make([]float64, p.Dim)
	var agg ring.Vector
	for c := 0; c < n; c++ {
		x := randomUpdate(master.Fork("data"), p.Dim, 0.9)
		for i := range x {
			want[i] += x[i]
		}
		enc, err := Encode(p, x, master.Fork("round"))
		if err != nil {
			t.Fatal(err)
		}
		if c == 0 {
			agg = enc
		} else if err := agg.AddInPlace(enc); err != nil {
			t.Fatal(err)
		}
	}
	dec, err := Decode(p, agg)
	if err != nil {
		t.Fatal(err)
	}
	var errNorm float64
	for i := range want {
		d := dec[i] - want[i]
		errNorm += d * d
	}
	errNorm = math.Sqrt(errNorm)
	if errNorm > 0.1 {
		t.Fatalf("aggregate decode error %v too large", errNorm)
	}
}

func TestNoiseAdditionDecodesToExpectedVariance(t *testing.T) {
	// Adding integer Skellam noise of variance μ = (s·σ)² in ring space
	// must surface as model-unit noise of variance ≈ σ² per coordinate
	// after decoding (rotation is orthonormal, so variance is preserved).
	p := testParams(256, 4)
	const sigma = 0.02
	mu := p.Scale * p.Scale * sigma * sigma
	s := prg.NewStream(prg.NewSeed([]byte("noise")))
	zero := make([]float64, p.Dim)
	enc, err := Encode(p, zero, s.Fork("r"))
	if err != nil {
		t.Fatal(err)
	}
	noise := make([]int64, enc.Len())
	rng.SkellamVector(s.Fork("n"), mu, noise)
	if err := enc.AddSignedInPlace(noise); err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(p, enc)
	if err != nil {
		t.Fatal(err)
	}
	var variance float64
	for _, v := range dec {
		variance += v * v
	}
	variance /= float64(len(dec))
	// Rounding of the zero vector adds per-coordinate variance ≤ 1/4 in
	// grid units = (0.5/s)² in model units, small vs σ² by construction.
	if variance < 0.5*sigma*sigma || variance > 2*sigma*sigma {
		t.Fatalf("decoded noise variance %v, want ≈%v", variance, sigma*sigma)
	}
}

func TestModularWraparoundRecovered(t *testing.T) {
	// Negative coordinates wrap in the ring; centering must recover them.
	p := testParams(16, 1)
	s := prg.NewStream(prg.NewSeed([]byte("neg")))
	x := make([]float64, p.Dim)
	for i := range x {
		x[i] = -0.2
	}
	enc, err := Encode(p, x, s)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(p, enc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if math.Abs(dec[i]-x[i]) > 0.05 {
			t.Fatalf("negative coordinate %d: %v vs %v", i, dec[i], x[i])
		}
	}
}

func TestEncodeDimMismatch(t *testing.T) {
	p := testParams(10, 1)
	s := prg.NewStream(prg.NewSeed([]byte("dim")))
	if _, err := Encode(p, make([]float64, 11), s); err == nil {
		t.Error("dim mismatch should error")
	}
}

func TestDecodeValidation(t *testing.T) {
	p := testParams(10, 1)
	if _, err := Decode(p, ring.NewVector(20, 5)); err == nil {
		t.Error("wrong aggregate dim should error")
	}
	if _, err := Decode(p, ring.NewVector(16, p.PaddedDim())); err == nil {
		t.Error("wrong bit width should error")
	}
}

func TestInflatedClipExceedsScaledClip(t *testing.T) {
	p := testParams(100, 4)
	if p.InflatedClip() <= p.Scale*p.Clip {
		t.Error("inflated clip must exceed s·c")
	}
	d1, d2 := p.Sensitivities()
	if d1 < d2 {
		t.Error("Δ₁ ≥ Δ₂ must hold")
	}
}

func TestChooseScaleErrors(t *testing.T) {
	if _, err := ChooseScale(0, 1, 20, 4, 0.1, 3); err == nil {
		t.Error("dim 0 should error")
	}
	if _, err := ChooseScale(10, 1, 2, 1000, 0.1, 3); err == nil {
		t.Error("tiny ring with many clients should error")
	}
}

func TestChooseScaleCapacity(t *testing.T) {
	// Encode n max-norm clients plus noise; sum must not informatively
	// overflow (decode error stays small).
	const n, dim = 16, 128
	scale, err := ChooseScale(dim, 1.0, 20, n, 0.05, 3)
	if err != nil {
		t.Fatal(err)
	}
	p := Params{Dim: dim, Bits: 20, Clip: 1, Scale: scale, Beta: math.Exp(-0.5), K: 3,
		NumClients: n, RotationSeed: prg.NewSeed([]byte("cap"))}
	s := prg.NewStream(prg.NewSeed([]byte("capdata")))
	want := make([]float64, dim)
	var agg ring.Vector
	for c := 0; c < n; c++ {
		x := randomUpdate(s.Fork("d"), dim, 1.0)
		for i := range x {
			want[i] += x[i]
		}
		enc, err := Encode(p, x, s.Fork("r"))
		if err != nil {
			t.Fatal(err)
		}
		if c == 0 {
			agg = enc
		} else {
			agg.AddInPlace(enc)
		}
	}
	dec, err := Decode(p, agg)
	if err != nil {
		t.Fatal(err)
	}
	var errNorm float64
	for i := range want {
		d := dec[i] - want[i]
		errNorm += d * d
	}
	if math.Sqrt(errNorm) > 0.2 {
		t.Fatalf("capacity violated: decode error %v", math.Sqrt(errNorm))
	}
}
