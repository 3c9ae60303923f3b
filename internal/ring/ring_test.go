package ring

import (
	"encoding/binary"
	"runtime"
	"sync"
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

// split divides v into m windows per ChunkBounds.
func split(v Vector, m int) []Vector {
	bounds := ChunkBounds(v.Len(), m)
	out := make([]Vector, len(bounds))
	for i, b := range bounds {
		out[i] = Vector{Bits: v.Bits, Data: v.Data[b[0]:b[1]]}
	}
	return out
}

// sum folds vs into a fresh vector.
func sum(t *testing.T, vs []Vector) Vector {
	t.Helper()
	acc := vs[0].Clone()
	if err := acc.AddManyInPlace(vs[1:]); err != nil {
		t.Fatal(err)
	}
	return acc
}

func TestSplitConcatRoundTrip(t *testing.T) {
	v := NewVector(20, 103)
	for i := range v.Data {
		v.Data[i] = uint64(i * 7)
	}
	for _, m := range []int{1, 2, 3, 7, 103, 200} {
		chunks := split(v, m)
		back, err := Concat(chunks)
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(v, back) {
			t.Fatalf("m=%d: split/concat round trip failed", m)
		}
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
	whole := sum(t, clients)
	chunkSums := make([]Vector, m)
	for c := 0; c < m; c++ {
		parts := make([]Vector, nClients)
		for i := range clients {
			parts[i] = split(clients[i], m)[c]
		}
		chunkSums[c] = sum(t, parts)
	}
	assembled, err := Concat(chunkSums)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(whole, assembled) {
		t.Fatal("chunk-wise aggregation differs from whole-vector aggregation")
	}
}

// maskBits are the widths the mask goldens sweep: every per from 64 down
// to 1, the widths either side of a change of per (20/21/22, 31/32/33),
// and 64, which NewVector refuses but the layout defines (per = 1).
var maskBits = []uint{1, 8, 16, 20, 21, 22, 31, 32, 33, 64}

// maskDims returns the dimensions the goldens sweep at one width: the
// word and block boundaries and one many-block vector.
func maskDims(bits uint) []int {
	per, block := maskPer(bits), MaskBlockLen(bits)
	return []int{0, 1, per - 1, per, per + 1, block - 1, block, block + 1, 65536}
}

// testVector is NewVector without its width check, filled with a pattern.
func testVector(bits uint, dim int) Vector {
	v := Vector{Bits: bits, Data: make([]uint64, dim)}
	for i := range v.Data {
		v.Data[i] = uint64(i*7+1) & v.Mask()
	}
	return v
}

// maskScalarRef is the mask expansion written from its definition, one
// scalar draw per keystream word: with per = ⌊64/b⌋, coordinate i takes
// bits [b·(i mod per), b·(i mod per)+b) of word ⌊i/per⌋, so dim coordinates
// consume ⌈dim/per⌉ words. It applies the mask to [lo, hi) only and leaves
// s just past the last word of the whole vector.
func maskScalarRef(v Vector, s *prg.Stream, sign, lo, hi int) {
	per := int(64 / v.Bits)
	words := make([]uint64, (len(v.Data)+per-1)/per)
	for w := range words {
		words[w] = s.Uint64()
	}
	m := v.Mask()
	for i := lo; i < hi; i++ {
		k := (words[i/per] >> (v.Bits * uint(i%per))) & m
		if sign == 1 {
			v.Data[i] = (v.Data[i] + k) & m
		} else {
			v.Data[i] = (v.Data[i] - k) & m
		}
	}
}

// TestMaskInPlaceMatchesScalarRef: the kernel is element-identical to the
// definition at every width class and at the word and block boundaries,
// for both signs, and a +1 then -1 round trip restores the vector.
func TestMaskInPlaceMatchesScalarRef(t *testing.T) {
	for _, bits := range maskBits {
		for _, dim := range maskDims(bits) {
			for _, sign := range []int{1, -1} {
				seed := prg.NewSeed([]byte("kernel-vs-scalar"), []byte{byte(bits), byte(sign + 2)})
				want := testVector(bits, dim)
				got := want.Clone()
				orig := want.Clone()
				maskScalarRef(want, prg.NewStream(seed), sign, 0, dim)
				if err := got.MaskInPlace(prg.NewStream(seed), sign); err != nil {
					t.Fatal(err)
				}
				if !Equal(want, got) {
					t.Fatalf("bits %d dim %d sign %+d: kernel differs from scalar reference", bits, dim, sign)
				}
				if err := got.MaskInPlace(prg.NewStream(seed), -sign); err != nil {
					t.Fatal(err)
				}
				if !Equal(got, orig) {
					t.Fatalf("bits %d dim %d sign %+d: +/- mask round trip does not restore vector", bits, dim, sign)
				}
			}
		}
	}
}

// TestMaskInPlaceStreamPosition: masking dim coordinates advances the
// stream by exactly ⌈dim/per⌉ words, so draws after masking coincide with
// the scalar path.
func TestMaskInPlaceStreamPosition(t *testing.T) {
	seed := prg.NewSeed([]byte("position"))
	for _, bits := range maskBits {
		per := int(64 / bits)
		for _, dim := range maskDims(bits) {
			sKernel := prg.NewStream(seed)
			sScalar := prg.NewStream(seed)
			if err := testVector(bits, dim).MaskInPlace(sKernel, 1); err != nil {
				t.Fatal(err)
			}
			maskScalarRef(testVector(bits, dim), sScalar, 1, 0, dim)
			if got, want := sKernel.Offset(), 8*uint64((dim+per-1)/per); got != want {
				t.Fatalf("bits %d dim %d: stream at byte %d after masking, want %d", bits, dim, got, want)
			}
			for i := 0; i < 4; i++ {
				if a, b := sKernel.Uint64(), sScalar.Uint64(); a != b {
					t.Fatalf("bits %d dim %d: draw %d after masking: kernel stream at %#x, scalar at %#x", bits, dim, i, a, b)
				}
			}
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
	bad := NewVector(20, dim+1)
	if err := acc.AddManyInPlace([]Vector{bad}); err == nil {
		t.Error("dimension mismatch should be rejected")
	}
}

// TestMaskRangeInPlaceMatchesSequential: expanding a mask as disjoint
// ranges — cut where ChunkBounds falls, which at these dimensions is not
// on multiples of per — equals the scalar reference range by range and
// one sequential MaskInPlace in total, and the base stream is never
// advanced by range expansion.
func TestMaskRangeInPlaceMatchesSequential(t *testing.T) {
	seed := prg.NewSeed([]byte("mask-range"))
	for _, bits := range []uint{16, 20, 32, 40} {
		block := MaskBlockLen(bits)
		for _, dim := range []int{1, 7, block - 1, block + 1, 2*block + 5} {
			for _, sign := range []int{1, -1} {
				orig := testVector(bits, dim)
				want := orig.Clone()
				if err := want.MaskInPlace(prg.NewStream(seed), sign); err != nil {
					t.Fatal(err)
				}
				for _, nseg := range []int{1, 2, 3, 5, 7} {
					v := orig.Clone()
					s := prg.NewStream(seed)
					for _, b := range ChunkBounds(dim, nseg) {
						ref := v.Clone()
						maskScalarRef(ref, prg.NewStream(seed), sign, b[0], b[1])
						if err := v.MaskManyInPlace([]Mask{{Stream: s, Sign: sign}}, b[0], b[1]); err != nil {
							t.Fatal(err)
						}
						if !Equal(v, ref) {
							t.Fatalf("bits=%d dim=%d sign=%d: range [%d,%d) differs from scalar reference", bits, dim, sign, b[0], b[1])
						}
					}
					if !Equal(v, want) {
						t.Fatalf("bits=%d dim=%d sign=%d nseg=%d: ranged mask differs from sequential", bits, dim, sign, nseg)
					}
					if s.Offset() != 0 {
						t.Fatalf("range expansion advanced the base stream to %d", s.Offset())
					}
				}
			}
		}
	}
}

// TestMaskManyInPlaceMatchesOneByOne is the kernel's defining property:
// blocked accumulation of many streams, cut into concurrent ranges, equals
// applying the streams whole and one by one — for any mix of signs, for
// cuts on and off the block grid, and for any number of range goroutines
// (run under -race: ranges of one vector share nothing but the read-only
// parent streams).
func TestMaskManyInPlaceMatchesOneByOne(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4, 8} {
		runtime.GOMAXPROCS(procs)
		for _, bits := range []uint{8, 20, 33, 64} {
			block := MaskBlockLen(bits)
			for _, dim := range []int{1, block, 3*block - 1, 5*block + 2} {
				for _, nstreams := range []int{1, 2, 33} {
					masks := make([]Mask, nstreams)
					want := testVector(bits, dim)
					for k := range masks {
						seed := prg.NewSeed([]byte("many"), []byte{byte(procs), byte(k)})
						sign := 1 - 2*((k*k+k/3)%2) // a fixed irregular mix of +1 and -1
						masks[k] = Mask{Stream: prg.NewStream(seed), Sign: sign}
						if err := want.MaskInPlace(prg.NewStream(seed), sign); err != nil {
							t.Fatal(err)
						}
					}
					// Cut once on the block grid, as secagg does, and once
					// wherever ChunkBounds falls.
					blocks := (dim + block - 1) / block
					grid := make([][2]int, procs)
					for r := range grid {
						grid[r] = [2]int{min(blocks*r/procs*block, dim), min(blocks*(r+1)/procs*block, dim)}
					}
					for _, bounds := range [][][2]int{grid, ChunkBounds(dim, procs)} {
						got := testVector(bits, dim)
						var wg sync.WaitGroup
						for _, b := range bounds {
							wg.Add(1)
							go func(lo, hi int) {
								defer wg.Done()
								if err := got.MaskManyInPlace(masks, lo, hi); err != nil {
									t.Error(err)
								}
							}(b[0], b[1])
						}
						wg.Wait()
						if !Equal(got, want) {
							t.Fatalf("procs=%d bits=%d dim=%d streams=%d bounds=%v: blocked accumulation differs from one-by-one",
								procs, bits, dim, nstreams, bounds)
						}
					}
				}
			}
		}
	}
}

// TestMaskManyInPlaceAllocs: the kernel allocates its cursors — O(streams)
// — and nothing that grows with the dimension or the number of blocks.
func TestMaskManyInPlaceAllocs(t *testing.T) {
	const bits, nstreams = 20, 16
	masks := make([]Mask, nstreams)
	for k := range masks {
		masks[k] = Mask{Stream: prg.NewStream(prg.NewSeed([]byte{byte(k)})), Sign: 1}
	}
	allocs := func(dim int) float64 {
		v := NewVector(bits, dim)
		return testing.AllocsPerRun(10, func() {
			if err := v.MaskManyInPlace(masks, 0, dim); err != nil {
				t.Fatal(err)
			}
		})
	}
	one, many := allocs(MaskBlockLen(bits)), allocs(40*MaskBlockLen(bits))
	// A collection between runs can empty the scratch pool: allow one refill.
	if many > one+1 {
		t.Errorf("allocations grow with the block count: %v for 1 block, %v for 40", one, many)
	}
	if one > 8*nstreams+8 {
		t.Errorf("%v allocations for %d streams: more than a few per cursor", one, nstreams)
	}
}

// TestMaskRangeInPlaceAfterOffset: ranges are relative to the stream's
// current offset plus the mask's Off — here not even word-aligned, and the
// cuts not multiples of per — so a pre-advanced stream, a fresh stream
// told to skip the same bytes, and a stream advanced part of the way and
// told to skip the rest all expand the exact bytes a sequential expansion
// from that position would.
func TestMaskRangeInPlaceAfterOffset(t *testing.T) {
	seed := prg.NewSeed([]byte("mask-range-skew"))
	const dim, skew = 3001, 123
	want := NewVector(20, dim)
	sw := prg.NewStream(seed)
	sw.Fill(make([]byte, skew))
	if err := want.MaskInPlace(sw, 1); err != nil {
		t.Fatal(err)
	}
	for _, advanced := range []int{skew, 0, 40} {
		got := NewVector(20, dim)
		sg := prg.NewStream(seed)
		sg.Fill(make([]byte, advanced))
		for _, b := range ChunkBounds(dim, 4) {
			if err := got.MaskManyInPlace([]Mask{{Stream: sg, Sign: 1, Off: uint64(skew - advanced)}}, b[0], b[1]); err != nil {
				t.Fatal(err)
			}
		}
		if !Equal(got, want) {
			t.Fatalf("stream advanced %d bytes, mask Off %d: range expansion differs from sequential", advanced, skew-advanced)
		}
	}
}

// TestMaskRangeInPlaceBounds: invalid ranges and signs are rejected.
func TestMaskRangeInPlaceBounds(t *testing.T) {
	v := NewVector(20, 10)
	s := prg.NewStream(prg.NewSeed([]byte("bounds")))
	for _, r := range [][2]int{{-1, 5}, {0, 11}, {7, 3}} {
		if err := v.MaskManyInPlace([]Mask{{Stream: s, Sign: 1}}, r[0], r[1]); err == nil {
			t.Errorf("range [%d,%d) should be rejected", r[0], r[1])
		}
	}
	if err := v.MaskManyInPlace([]Mask{{Stream: s, Sign: 2}}, 0, 5); err == nil {
		t.Error("sign 2 should be rejected")
	}
	if err := v.MaskManyInPlace([]Mask{{Stream: s, Sign: 1}}, 4, 4); err != nil {
		t.Errorf("empty range should be a no-op, got %v", err)
	}
}

// TestAddBytesLEMatchesAddInPlace: folding an addend from its wire bytes
// equals AddInPlace of the decoded words — for reduced and unreduced
// addends, across the unrolled loop's tail lengths, at every bit width
// the ring admits, and with the payload at every byte offset of a word
// (a frame's vector starts 14 bytes into its payload, so it is never
// aligned).
func TestAddBytesLEMatchesAddInPlace(t *testing.T) {
	s := prg.NewStream(prg.NewSeed([]byte("add-bytes-le")))
	for _, bits := range []uint{1, 20, 32, 63} {
		for _, dim := range []int{0, 1, 3, 4, 5, 7, 2047, 2048, 4099} {
			for offset := 0; offset < 8; offset++ {
				acc := NewVector(bits, dim)
				addend := NewVector(bits, dim)
				for i := range acc.Data {
					acc.Data[i] = s.Uint64() & acc.Mask()
					addend.Data[i] = s.Uint64() // unreduced: the fold reduces
				}
				buf := make([]byte, offset+8*dim)
				wire := buf[offset:]
				for i, x := range addend.Data {
					binary.LittleEndian.PutUint64(wire[8*i:], x)
				}
				want := acc.Clone()
				if err := want.AddInPlace(addend); err != nil {
					t.Fatal(err)
				}
				if err := acc.AddBytesLE(wire); err != nil {
					t.Fatal(err)
				}
				if !Equal(acc, want) {
					t.Fatalf("bits %d dim %d offset %d: fold from bytes differs from AddInPlace", bits, dim, offset)
				}
			}
		}
	}
	v := NewVector(20, 4)
	for _, n := range []int{0, 31, 33, 40} {
		if err := v.AddBytesLE(make([]byte, n)); err == nil {
			t.Fatalf("a %d-byte addend for 4 coordinates was accepted", n)
		}
	}
}
