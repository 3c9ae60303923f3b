package ring

import (
	"testing"
	"testing/quick"

	"repro/internal/prg"
)

func vecOf(bits uint, vals ...uint64) Vector {
	v := NewVector(bits, len(vals))
	m := v.Mask()
	for i, x := range vals {
		v.Data[i] = x & m
	}
	return v
}

func TestAddSubInverse(t *testing.T) {
	f := func(a, b []uint64) bool {
		if len(a) > len(b) {
			a = a[:len(b)]
		} else {
			b = b[:len(a)]
		}
		if len(a) == 0 {
			return true
		}
		va := vecOf(20, a...)
		vb := vecOf(20, b...)
		orig := va.Clone()
		if err := va.AddInPlace(vb); err != nil {
			return false
		}
		if err := va.SubInPlace(vb); err != nil {
			return false
		}
		return Equal(va, orig)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWrapAround(t *testing.T) {
	v := vecOf(8, 250)
	w := vecOf(8, 10)
	if err := v.AddInPlace(w); err != nil {
		t.Fatal(err)
	}
	if v.Data[0] != 4 { // (250+10) mod 256
		t.Fatalf("got %d, want 4", v.Data[0])
	}
}

func TestIncompatibleVectors(t *testing.T) {
	a := NewVector(20, 3)
	b := NewVector(16, 3)
	if err := a.AddInPlace(b); err == nil {
		t.Error("bit width mismatch should error")
	}
	c := NewVector(20, 4)
	if err := a.AddInPlace(c); err == nil {
		t.Error("dimension mismatch should error")
	}
}

func TestSignedAddSubRoundTrip(t *testing.T) {
	v := vecOf(20, 5, 100, 1<<19)
	noise := []int64{-7, 3, -(1 << 18)}
	orig := v.Clone()
	if err := v.AddSignedInPlace(noise); err != nil {
		t.Fatal(err)
	}
	if err := v.SubSignedInPlace(noise); err != nil {
		t.Fatal(err)
	}
	if !Equal(v, orig) {
		t.Fatal("signed add/sub should round-trip")
	}
}

func TestSignedDimensionCheck(t *testing.T) {
	v := NewVector(20, 3)
	if err := v.AddSignedInPlace([]int64{1}); err == nil {
		t.Error("dimension mismatch should error")
	}
	if err := v.SubSignedInPlace([]int64{1}); err == nil {
		t.Error("dimension mismatch should error")
	}
}

func TestCentered(t *testing.T) {
	v := vecOf(8, 0, 1, 127, 128, 255)
	got := v.Centered()
	want := []int64{0, 1, 127, -128, -1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Centered()[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestCenteredSignedRoundTrip(t *testing.T) {
	// Encoding a small signed value into the ring and centering recovers it.
	f := func(x int16) bool {
		v := NewVector(20, 1)
		v.Data[0] = uint64(int64(x)) & v.Mask()
		return v.Centered()[0] == int64(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMaskCancellation(t *testing.T) {
	// p_{u,v} + p_{v,u} = 0: adding with sign +1 then -1 using the same
	// seed restores the vector — the heart of SecAgg masking.
	seed := prg.NewSeed([]byte("pairwise"))
	v := vecOf(20, 11, 22, 33, 44)
	orig := v.Clone()
	if err := v.MaskInPlace(prg.NewStream(seed), 1); err != nil {
		t.Fatal(err)
	}
	if Equal(v, orig) {
		t.Fatal("mask should change the vector")
	}
	if err := v.MaskInPlace(prg.NewStream(seed), -1); err != nil {
		t.Fatal(err)
	}
	if !Equal(v, orig) {
		t.Fatal("opposite-sign masks with same seed must cancel")
	}
}

func TestMaskSignValidation(t *testing.T) {
	v := NewVector(20, 1)
	if err := v.MaskInPlace(prg.NewStream(prg.NewSeed([]byte("x"))), 0); err == nil {
		t.Error("sign 0 should be rejected")
	}
}

func TestSum(t *testing.T) {
	vs := []Vector{vecOf(20, 1, 2), vecOf(20, 10, 20), vecOf(20, 100, 200)}
	got, err := Sum(vs)
	if err != nil {
		t.Fatal(err)
	}
	if got.Data[0] != 111 || got.Data[1] != 222 {
		t.Fatalf("Sum = %v", got.Data)
	}
	if _, err := Sum(nil); err == nil {
		t.Error("Sum of nothing should error")
	}
}

func TestChunkBounds(t *testing.T) {
	cases := []struct {
		dim, m int
		want   [][2]int
	}{
		{10, 3, [][2]int{{0, 4}, {4, 7}, {7, 10}}},
		{10, 1, [][2]int{{0, 10}}},
		{3, 5, [][2]int{{0, 1}, {1, 2}, {2, 3}}}, // m clamped to dim
		{6, 3, [][2]int{{0, 2}, {2, 4}, {4, 6}}},
		{0, 3, [][2]int{{0, 0}}},
		{5, 0, [][2]int{{0, 5}}}, // m clamped to 1
	}
	for _, c := range cases {
		got := ChunkBounds(c.dim, c.m)
		if len(got) != len(c.want) {
			t.Fatalf("ChunkBounds(%d,%d) = %v, want %v", c.dim, c.m, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("ChunkBounds(%d,%d) = %v, want %v", c.dim, c.m, got, c.want)
			}
		}
	}
}

func TestChunkBoundsCoverProperty(t *testing.T) {
	f := func(dim, m uint8) bool {
		d := int(dim)
		bounds := ChunkBounds(d, int(m))
		// Contiguous cover of [0, d).
		pos := 0
		for _, b := range bounds {
			if b[0] != pos || b[1] < b[0] {
				return false
			}
			pos = b[1]
		}
		return pos == d || (d == 0 && pos == 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSplitConcatRoundTrip(t *testing.T) {
	v := NewVector(20, 103)
	for i := range v.Data {
		v.Data[i] = uint64(i * 7)
	}
	for _, m := range []int{1, 2, 3, 7, 103, 200} {
		chunks := Split(v, m)
		back, err := Concat(chunks)
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(v, back) {
			t.Fatalf("m=%d: split/concat round trip failed", m)
		}
	}
}

func TestSplitSharesStorage(t *testing.T) {
	v := NewVector(20, 10)
	chunks := Split(v, 2)
	chunks[1].Data[0] = 42
	if v.Data[5] != 42 {
		t.Fatal("chunks should alias the parent vector")
	}
}

func TestConcatErrors(t *testing.T) {
	if _, err := Concat(nil); err == nil {
		t.Error("empty concat should error")
	}
	if _, err := Concat([]Vector{NewVector(20, 1), NewVector(16, 1)}); err == nil {
		t.Error("mixed widths should error")
	}
}

func TestChunkwiseAggregationEqualsWhole(t *testing.T) {
	// Σ_i Δ_i == (Σ_i Δ_i,1) ∥ ... ∥ (Σ_i Δ_i,m)  — §4.1 correctness.
	const dim, nClients, m = 57, 5, 4
	clients := make([]Vector, nClients)
	s := prg.NewStream(prg.NewSeed([]byte("agg")))
	for i := range clients {
		clients[i] = NewVector(20, dim)
		for j := range clients[i].Data {
			clients[i].Data[j] = s.Uint64() & clients[i].Mask()
		}
	}
	whole, err := Sum(clients)
	if err != nil {
		t.Fatal(err)
	}
	chunkSums := make([]Vector, m)
	for c := 0; c < m; c++ {
		parts := make([]Vector, nClients)
		for i := range clients {
			parts[i] = Split(clients[i], m)[c]
		}
		chunkSums[c], err = Sum(parts)
		if err != nil {
			t.Fatal(err)
		}
	}
	assembled, err := Concat(chunkSums)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(whole, assembled) {
		t.Fatal("chunk-wise aggregation differs from whole-vector aggregation")
	}
}

// maskInPlaceScalarRef is the seed implementation of MaskInPlace: one
// buffered 8-byte draw per element. It is kept as the reference the bulk
// path is property-tested against.
func maskInPlaceScalarRef(v Vector, s *prg.Stream, sign int) {
	m := v.Mask()
	if sign == 1 {
		for i := range v.Data {
			v.Data[i] = (v.Data[i] + (s.Uint64() & m)) & m
		}
	} else {
		for i := range v.Data {
			v.Data[i] = (v.Data[i] - (s.Uint64() & m)) & m
		}
	}
}

// TestMaskInPlaceMatchesScalarRef: the bulk mask expansion is
// element-identical to the seed's scalar Uint64()&mask loop, across odd
// dimensions (scratch-boundary straddling) and both signs, and a +1 then
// -1 round trip restores the original vector.
func TestMaskInPlaceMatchesScalarRef(t *testing.T) {
	dims := []int{0, 1, 7, 63, 512, 2047, 2048, 2049, 5000, 10000}
	for _, dim := range dims {
		for _, sign := range []int{1, -1} {
			seed := prg.NewSeed([]byte("bulk-vs-scalar"), []byte{byte(dim), byte(sign + 2)})
			want := NewVector(20, dim)
			got := NewVector(20, dim)
			for i := 0; i < dim; i++ {
				want.Data[i] = uint64(i*7+1) & want.Mask()
				got.Data[i] = want.Data[i]
			}
			orig := got.Clone()
			maskInPlaceScalarRef(want, prg.NewStream(seed), sign)
			if err := got.MaskInPlace(prg.NewStream(seed), sign); err != nil {
				t.Fatal(err)
			}
			if !Equal(want, got) {
				t.Fatalf("dim %d sign %+d: bulk mask differs from scalar reference", dim, sign)
			}
			if err := got.MaskInPlace(prg.NewStream(seed), -sign); err != nil {
				t.Fatal(err)
			}
			if !Equal(got, orig) {
				t.Fatalf("dim %d sign %+d: +/- mask round trip does not restore vector", dim, sign)
			}
		}
	}
}

// TestMaskInPlaceStreamPosition: bulk masking consumes exactly 8·dim
// stream bytes, so draws after masking coincide with the scalar path.
func TestMaskInPlaceStreamPosition(t *testing.T) {
	seed := prg.NewSeed([]byte("position"))
	const dim = 777
	sBulk := prg.NewStream(seed)
	sScalar := prg.NewStream(seed)
	v := NewVector(20, dim)
	if err := v.MaskInPlace(sBulk, 1); err != nil {
		t.Fatal(err)
	}
	w := NewVector(20, dim)
	maskInPlaceScalarRef(w, sScalar, 1)
	for i := 0; i < 16; i++ {
		if a, b := sBulk.Uint64(), sScalar.Uint64(); a != b {
			t.Fatalf("draw %d after masking: bulk stream at %#x, scalar at %#x", i, a, b)
		}
	}
}

func TestAddSubManyInPlace(t *testing.T) {
	const dim = 4999 // straddles the fused block size
	acc := NewVector(20, dim)
	ref := NewVector(20, dim)
	for i := 0; i < dim; i++ {
		acc.Data[i] = uint64(i) & acc.Mask()
		ref.Data[i] = acc.Data[i]
	}
	os := make([]Vector, 5)
	for k := range os {
		os[k] = NewVector(20, dim)
		for i := 0; i < dim; i++ {
			os[k].Data[i] = uint64(i*13+k*999983) & acc.Mask()
		}
	}
	if err := acc.AddManyInPlace(os); err != nil {
		t.Fatal(err)
	}
	for _, o := range os {
		if err := ref.AddInPlace(o); err != nil {
			t.Fatal(err)
		}
	}
	if !Equal(acc, ref) {
		t.Fatal("AddManyInPlace differs from sequential AddInPlace")
	}
	if err := acc.SubManyInPlace(os); err != nil {
		t.Fatal(err)
	}
	for _, o := range os {
		if err := ref.SubInPlace(o); err != nil {
			t.Fatal(err)
		}
	}
	if !Equal(acc, ref) {
		t.Fatal("SubManyInPlace differs from sequential SubInPlace")
	}
	bad := NewVector(20, dim+1)
	if err := acc.AddManyInPlace([]Vector{bad}); err == nil {
		t.Error("dimension mismatch should be rejected")
	}
}

// TestMaskRangeInPlaceMatchesSequential: expanding a mask as disjoint
// ranges — at every split point of several segment counts — is
// byte-identical to one sequential MaskInPlace, and the base stream is
// never advanced by range expansion.
func TestMaskRangeInPlaceMatchesSequential(t *testing.T) {
	seed := prg.NewSeed([]byte("mask-range"))
	for _, dim := range []int{1, 7, 2048, 2049, 5000} {
		for _, sign := range []int{1, -1} {
			want := NewVector(20, dim)
			for i := range want.Data {
				want.Data[i] = uint64(i*31) & want.Mask()
			}
			got := want.Clone()
			if err := want.MaskInPlace(prg.NewStream(seed), sign); err != nil {
				t.Fatal(err)
			}
			for _, nseg := range []int{1, 2, 3, 5} {
				v := got.Clone()
				s := prg.NewStream(seed)
				for _, b := range ChunkBounds(dim, nseg) {
					if err := v.MaskRangeInPlace(s, sign, b[0], b[1]); err != nil {
						t.Fatal(err)
					}
				}
				if !Equal(v, want) {
					t.Fatalf("dim=%d sign=%d nseg=%d: segmented mask differs from sequential", dim, sign, nseg)
				}
				if s.Offset() != 0 {
					t.Fatalf("MaskRangeInPlace advanced the base stream to %d", s.Offset())
				}
			}
		}
	}
}

// TestMaskRangeInPlaceAfterOffset: ranges are relative to the stream's
// current offset, so a pre-advanced stream still expands the exact bytes a
// sequential expansion from that position would.
func TestMaskRangeInPlaceAfterOffset(t *testing.T) {
	seed := prg.NewSeed([]byte("mask-range-skew"))
	const dim, skew = 3000, 123
	want := NewVector(20, dim)
	got := want.Clone()

	sw := prg.NewStream(seed)
	sw.Fill(make([]byte, skew))
	if err := want.MaskInPlace(sw, 1); err != nil {
		t.Fatal(err)
	}
	sg := prg.NewStream(seed)
	sg.Fill(make([]byte, skew))
	for _, b := range ChunkBounds(dim, 4) {
		if err := got.MaskRangeInPlace(sg, 1, b[0], b[1]); err != nil {
			t.Fatal(err)
		}
	}
	if !Equal(got, want) {
		t.Fatal("offset-relative range expansion differs from sequential")
	}
}

// TestMaskRangeInPlaceBounds: invalid ranges and signs are rejected.
func TestMaskRangeInPlaceBounds(t *testing.T) {
	v := NewVector(20, 10)
	s := prg.NewStream(prg.NewSeed([]byte("bounds")))
	for _, r := range [][2]int{{-1, 5}, {0, 11}, {7, 3}} {
		if err := v.MaskRangeInPlace(s, 1, r[0], r[1]); err == nil {
			t.Errorf("range [%d,%d) should be rejected", r[0], r[1])
		}
	}
	if err := v.MaskRangeInPlace(s, 2, 0, 5); err == nil {
		t.Error("sign 2 should be rejected")
	}
	if err := v.MaskRangeInPlace(s, 1, 4, 4); err != nil {
		t.Errorf("empty range should be a no-op, got %v", err)
	}
}
