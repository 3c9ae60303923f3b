package prg

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/field"
)

func TestDeterminism(t *testing.T) {
	seed := NewSeed([]byte("hello"))
	a := NewStream(seed)
	b := NewStream(seed)
	bufA := make([]byte, 10000)
	bufB := make([]byte, 10000)
	a.Read(bufA)
	b.Read(bufB)
	if !bytes.Equal(bufA, bufB) {
		t.Fatal("same seed must produce identical streams")
	}
}

func TestDeterminismAcrossReadSizes(t *testing.T) {
	seed := NewSeed([]byte("chunked"))
	a := NewStream(seed)
	b := NewStream(seed)
	bufA := make([]byte, 3000)
	a.Read(bufA)
	bufB := make([]byte, 0, 3000)
	tmp := make([]byte, 7)
	for len(bufB) < 3000 {
		n := 7
		if rem := 3000 - len(bufB); rem < n {
			n = rem
		}
		b.Read(tmp[:n])
		bufB = append(bufB, tmp[:n]...)
	}
	if !bytes.Equal(bufA, bufB) {
		t.Fatal("stream must be invariant to read partitioning")
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := NewStream(NewSeed([]byte("a")))
	b := NewStream(NewSeed([]byte("b")))
	bufA := make([]byte, 64)
	bufB := make([]byte, 64)
	a.Read(bufA)
	b.Read(bufB)
	if bytes.Equal(bufA, bufB) {
		t.Fatal("different seeds should produce different streams")
	}
}

func TestNewSeedConcatenationMatters(t *testing.T) {
	// NewSeed hashes the concatenation; different part splits of the same
	// bytes are identical, but different bytes must differ.
	s1 := NewSeed([]byte("ab"), []byte("c"))
	s2 := NewSeed([]byte("a"), []byte("bc"))
	if s1 != s2 {
		t.Error("NewSeed should hash the concatenation of parts")
	}
	s3 := NewSeed([]byte("abd"))
	if s1 == s3 {
		t.Error("different content should give different seeds")
	}
}

func TestFieldElementRoundTripDomain(t *testing.T) {
	f := func(v uint64) bool {
		e := field.New(v)
		s := FromFieldElement(e)
		// Determinism of the mapping.
		return s == FromFieldElement(e)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUint64nBounds(t *testing.T) {
	s := NewStream(NewSeed([]byte("bounds")))
	for _, n := range []uint64{1, 2, 3, 7, 16, 1000, 1 << 20, 1<<63 + 12345} {
		for i := 0; i < 200; i++ {
			if v := s.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Uint64n(0) should panic")
		}
	}()
	NewStream(NewSeed([]byte("z"))).Uint64n(0)
}

func TestFloat64Range(t *testing.T) {
	s := NewStream(NewSeed([]byte("floats")))
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean %v too far from 0.5", mean)
	}
}

func TestUniformityChiSquare(t *testing.T) {
	// Coarse uniformity check: 16 buckets over Uint64n(16).
	s := NewStream(NewSeed([]byte("chi2")))
	const n = 160000
	var counts [16]int
	for i := 0; i < n; i++ {
		counts[s.Uint64n(16)]++
	}
	expected := float64(n) / 16
	var chi2 float64
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// df=15; 99.9th percentile ≈ 37.7. Generous bound.
	if chi2 > 45 {
		t.Errorf("chi-square %v too large; distribution looks non-uniform", chi2)
	}
}

func TestForkIndependence(t *testing.T) {
	seed := NewSeed([]byte("fork"))
	s1 := NewStream(seed)
	c1 := s1.Fork("alpha")
	c2 := s1.Fork("alpha") // second fork consumes later stream state → differs
	b1 := make([]byte, 64)
	b2 := make([]byte, 64)
	c1.Read(b1)
	c2.Read(b2)
	if bytes.Equal(b1, b2) {
		t.Error("sequential forks should be independent")
	}
	// Determinism: replaying the parent reproduces the same children.
	s2 := NewStream(seed)
	d1 := s2.Fork("alpha")
	e1 := make([]byte, 64)
	d1.Read(e1)
	c1b := make([]byte, 64)
	NewStream(seed).Fork("alpha").Read(c1b)
	if !bytes.Equal(e1, c1b) {
		t.Error("fork must be deterministic given parent state")
	}
}

func BenchmarkUint64(b *testing.B) {
	s := NewStream(NewSeed([]byte("bench64")))
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

// TestGoldenKeystream pins the keystream bytes of a fixed seed. The values
// were generated by the seed revision's scalar implementation; any change
// to Stream construction, refill, or the bulk paths that alters them breaks
// client/server mask agreement and MUST fail here.
func TestGoldenKeystream(t *testing.T) {
	const wantFirst64 = "7dcf457b15f8febd126653891641b3e9ebcfe8d6cfb667d0" +
		"d742e283d6f715c5a8c09a3318587f2a5403306fb192b39463f135d23203ab1a" +
		"c2be1d223455e417"
	const wantSHA1MiB = "ed9474e6fc7ff4ec45a9a97e051d9c4c7dced1db368667a2e65e1caffdaf7d78"
	wantU64 := []uint64{
		0xbdfef8157b45cf7d, 0xe9b3411689536612, 0xd067b6cfd6e8cfeb,
		0xc515f7d683e242d7, 0x2a7f5818339ac0a8, 0x94b392b16f300354,
		0x1aab0332d235f163, 0x17e45534221dbec2,
	}

	seed := NewSeed([]byte("dordis/golden/v1"))
	buf := make([]byte, 1<<20)
	NewStream(seed).Read(buf)
	if got := hex.EncodeToString(buf[:64]); got != wantFirst64 {
		t.Errorf("first 64 keystream bytes changed:\n got %s\nwant %s", got, wantFirst64)
	}
	h := sha256.Sum256(buf)
	if got := hex.EncodeToString(h[:]); got != wantSHA1MiB {
		t.Errorf("keystream SHA-256 over 1 MiB changed: got %s want %s", got, wantSHA1MiB)
	}

	s := NewStream(seed)
	for i, want := range wantU64 {
		if got := s.Uint64(); got != want {
			t.Errorf("Uint64 draw %d = %#x, want %#x", i, got, want)
		}
	}

	// The bulk path must expand the identical stream.
	bulk := make([]byte, 1<<20)
	NewStream(seed).Fill(bulk)
	if !bytes.Equal(bulk, buf) {
		t.Error("Fill produced different keystream than Read")
	}
}

// TestFillMatchesReadAcrossPartitions: any interleave of Read and Fill
// calls observes the same logical byte stream.
func TestFillMatchesReadAcrossPartitions(t *testing.T) {
	seed := NewSeed([]byte("fill-vs-read"))
	want := make([]byte, 70000)
	NewStream(seed).Read(want)

	got := make([]byte, 0, len(want))
	s := NewStream(seed)
	sizes := []int{1, 7, 8, 511, 512, 513, 4096, 40000, 3, 24000}
	useFill := true
	for _, n := range sizes {
		if len(got)+n > len(want) {
			n = len(want) - len(got)
		}
		chunk := make([]byte, n)
		if useFill {
			s.Fill(chunk)
		} else {
			s.Read(chunk)
		}
		useFill = !useFill
		got = append(got, chunk...)
	}
	if !bytes.Equal(want[:len(got)], got) {
		t.Fatal("mixed Read/Fill stream differs from pure Read stream")
	}
}

// TestFillUint64MatchesScalar: the bulk word draws equal a scalar Uint64
// loop, including after odd byte offsets, and the masked variant applies
// the mask to the identical values.
func TestFillUint64MatchesScalar(t *testing.T) {
	seed := NewSeed([]byte("bulk-words"))
	for _, skew := range []int{0, 3, 511} {
		sScalar := NewStream(seed)
		sBulk := NewStream(seed)
		skip := make([]byte, skew)
		sScalar.Read(skip)
		sBulk.Fill(skip)

		const n = 5000
		want := make([]uint64, n)
		for i := range want {
			want[i] = sScalar.Uint64()
		}
		got := make([]uint64, n)
		sBulk.FillUint64(got)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("skew %d: FillUint64[%d] = %#x, want %#x", skew, i, got[i], want[i])
			}
		}

		const mask = (1 << 20) - 1
		sm := NewStream(seed)
		sm.Fill(skip)
		masked := make([]uint64, n)
		sm.FillUint64Masked(masked, mask)
		for i := range want {
			if masked[i] != want[i]&mask {
				t.Fatalf("skew %d: FillUint64Masked[%d] = %#x, want %#x", skew, i, masked[i], want[i]&mask)
			}
		}
	}
}

// TestSeekMatchesSequential: Seek(off) followed by reads is byte-identical
// to sequentially consuming off bytes first, for every intra-block offset
// class, buffer-boundary offsets, and large offsets.
func TestSeekMatchesSequential(t *testing.T) {
	seed := NewSeed([]byte("seek-golden"))
	const total = 1 << 16
	want := make([]byte, total)
	NewStream(seed).Fill(want)

	offsets := []uint64{0, 1, 7, 8, 15, 16, 17, 31, 255, 511, 512, 513,
		4095, 4096, 32768, 60000, total - 64}
	for _, off := range offsets {
		s := NewStream(seed)
		s.Seek(off)
		n := 1024
		if rem := total - int(off); rem < n {
			n = rem
		}
		got := make([]byte, n)
		s.Fill(got)
		if !bytes.Equal(got, want[off:int(off)+n]) {
			t.Errorf("Seek(%d): bytes differ from sequential stream", off)
		}
		if s.Offset() != off+uint64(n) {
			t.Errorf("Seek(%d)+Fill(%d): Offset = %d, want %d", off, n, s.Offset(), off+uint64(n))
		}
	}
}

// at returns a fresh cursor at byte offset off of s's keystream.
func at(s *Stream, off uint64) *Stream {
	c := new(Stream)
	s.AtInto(c, off)
	return c
}

// TestSeekBlockAndAt: Seek to a block boundary and fresh AtInto cursors
// reproduce the sequential bytes, and AtInto does not disturb the parent.
func TestSeekBlockAndAt(t *testing.T) {
	seed := NewSeed([]byte("seek-block"))
	const total = 1 << 15
	want := make([]byte, total)
	NewStream(seed).Fill(want)

	parent := NewStream(seed)
	head := make([]byte, 100)
	parent.Fill(head) // advance the parent; At must not care
	for _, blk := range []uint64{0, 1, 2, 31, 32, 33, 1000} {
		s := NewStream(seed)
		off := blk * BlockSize
		s.Seek(off)
		got := make([]byte, 64)
		s.Fill(got)
		if !bytes.Equal(got, want[off:off+64]) {
			t.Errorf("Seek(block %d): bytes differ from sequential stream", blk)
		}

		c := at(parent, off)
		cGot := make([]byte, 64)
		c.Fill(cGot)
		if !bytes.Equal(cGot, want[off:off+64]) {
			t.Errorf("At(%d): bytes differ from sequential stream", off)
		}
	}
	if parent.Offset() != 100 {
		t.Errorf("At must not advance the parent: Offset = %d, want 100", parent.Offset())
	}
	rest := make([]byte, 64)
	parent.Fill(rest)
	if !bytes.Equal(rest, want[100:164]) {
		t.Error("parent stream corrupted by At cursors")
	}
}

// TestAtIntoReaims: one cursor re-aimed in place — across offsets, across
// buffered lookahead left by the previous aim, and across parents with
// different keys — reads exactly what a fresh cursor would, and costs
// fewer allocations than aiming a fresh one (no Stream per cursor).
func TestAtIntoReaims(t *testing.T) {
	parents := []*Stream{NewStream(NewSeed([]byte("reaim-a"))), NewStream(NewSeed([]byte("reaim-b")))}
	var c Stream
	for i, off := range []uint64{0, 7, 16, 500, 513, 4096, 3, 40000} {
		p := parents[i%2]
		p.AtInto(&c, off)
		got, want := make([]byte, 600), make([]byte, 600)
		c.Fill(got[:5]) // leaves lookahead buffered for the next aim to drop
		c.Fill(got[5:])
		at(p, off).Fill(want)
		if !bytes.Equal(got, want) {
			t.Fatalf("re-aimed cursor at %d of parent %d differs from a fresh cursor", off, i%2)
		}
		if c.Offset() != off+600 {
			t.Fatalf("re-aimed cursor at %d: Offset = %d after 600 bytes", off, c.Offset())
		}
		if p.Offset() != 0 {
			t.Fatalf("AtInto advanced its parent to %d", p.Offset())
		}
	}
	into := testing.AllocsPerRun(100, func() { parents[0].AtInto(&c, 4096) })
	fresh := testing.AllocsPerRun(100, func() { _ = at(parents[0], 4096) })
	if into >= fresh {
		t.Errorf("AtInto allocates %v per aim, a fresh cursor %v: re-aiming must not allocate a Stream", into, fresh)
	}
	// The one allocation left is the CTR itself: the counter block lives in
	// the cursor, aligned aim or not.
	for _, off := range []uint64{4096, 4100} {
		if n := testing.AllocsPerRun(100, func() { parents[0].AtInto(&c, off) }); n != 1 {
			t.Errorf("AtInto at %d allocates %v per aim, want 1 (the CTR)", off, n)
		}
	}
}

// TestAtIntoNewParentSameOffset: a cursor re-aimed from parent A to
// parent B at the very offset where it already stands — nothing about its
// position changes — reads B's keystream, not the rest of A's: the aim
// keys a new CTR whatever the offset.
func TestAtIntoNewParentSameOffset(t *testing.T) {
	a, b := NewStream(NewSeed([]byte("parent-a"))), NewStream(NewSeed([]byte("parent-b")))
	for _, off := range []uint64{0, 16, 100} {
		var c Stream
		a.AtInto(&c, off)
		c.Fill(make([]byte, 32))
		pos := c.Offset()
		b.AtInto(&c, pos)
		got, want := make([]byte, 64), make([]byte, 64)
		c.Fill(got)
		at(b, pos).Fill(want)
		if !bytes.Equal(got, want) {
			t.Fatalf("cursor re-aimed from A to B at %d reads %x, want B's %x", pos, got[:8], want[:8])
		}
	}
}

// TestFillAtEveryOffset: exhaustive golden sweep — a Fill from an At
// cursor at every byte offset in a window equals the corresponding
// sequential slice, and FillUint64 from one equals the scalar draw
// sequence after a skip.
func TestFillAtEveryOffset(t *testing.T) {
	seed := NewSeed([]byte("fillat-exhaustive"))
	const total = 2048
	want := make([]byte, total+64)
	NewStream(seed).Fill(want)

	s := NewStream(seed)
	got := make([]byte, 64)
	for off := 0; off < total; off++ {
		at(s, uint64(off)).Fill(got)
		if !bytes.Equal(got, want[off:off+64]) {
			t.Fatalf("At(%d).Fill differs from sequential stream", off)
		}
	}

	// Word form: At(off).FillUint64 must equal scalar Uint64 draws made
	// after consuming off bytes.
	for _, off := range []uint64{0, 8, 16, 24, 4096 - 8} {
		sc := NewStream(seed)
		skip := make([]byte, off)
		sc.Read(skip)
		wantW := make([]uint64, 16)
		for i := range wantW {
			wantW[i] = sc.Uint64()
		}
		gotW := make([]uint64, 16)
		at(s, off).FillUint64(gotW)
		for i := range wantW {
			if gotW[i] != wantW[i] {
				t.Fatalf("At(%d).FillUint64[%d] = %#x, want %#x", off, i, gotW[i], wantW[i])
			}
		}
	}
}

// TestSeekCounterWraparound: an IV near the top of the 128-bit counter
// space must wrap exactly like CTR mode's own per-block increment.
func TestSeekCounterWraparound(t *testing.T) {
	var seed Seed
	copy(seed[:16], []byte("wrap-key-0123456"))
	for i := 16; i < 32; i++ {
		seed[i] = 0xff // counter starts at 2^128 - 1: wraps after one block
	}
	want := make([]byte, 1024)
	NewStream(seed).Fill(want)
	for _, off := range []uint64{0, 15, 16, 17, 160, 1000} {
		s := NewStream(seed)
		s.Seek(off)
		got := make([]byte, 24)
		s.Fill(got)
		if !bytes.Equal(got, want[off:off+24]) {
			t.Errorf("Seek(%d) across counter wraparound differs from sequential", off)
		}
	}
}

// TestSegmentedFillMatchesSequential: expanding one stream as disjoint
// concurrent segments via At reproduces the sequential expansion exactly,
// for every split point — the contract range-partitioned mask expansion
// relies on.
func TestSegmentedFillMatchesSequential(t *testing.T) {
	seed := NewSeed([]byte("segmented"))
	const total = 8192
	want := make([]byte, total)
	NewStream(seed).Fill(want)

	base := NewStream(seed)
	for _, nseg := range []int{2, 3, 4, 7, 8} {
		got := make([]byte, total)
		var wg sync.WaitGroup
		for i := 0; i < nseg; i++ {
			lo := total * i / nseg
			hi := total * (i + 1) / nseg
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				at(base, uint64(lo)).Fill(got[lo:hi])
			}(lo, hi)
		}
		wg.Wait()
		if !bytes.Equal(got, want) {
			t.Errorf("%d-way segmented expansion differs from sequential", nseg)
		}
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the heap bytes one call of
// f allocates, averaged over runs calls, the least of three batches (the
// counter is process-wide, so a batch another goroutine allocated in reads
// high, never low).
func bytesPerRun(runs int, f func()) uint64 {
	f() // warm
	least := ^uint64(0)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			f()
		}
		runtime.ReadMemStats(&after)
		least = min(least, (after.TotalAlloc-before.TotalAlloc)/uint64(runs))
	}
	return least
}

// TestFillOnlyStreamCarriesNoLookahead: a stream only ever Filled in
// multiples of the lookahead's length — a mask stream whose windows are
// whole kernel blocks — allocates its AES key schedule, its CTR and the
// Stream itself, which holds no lookahead inline: it makes the buffer on
// its first draw that needs one.
func TestFillOnlyStreamCarriesNoLookahead(t *testing.T) {
	if size := unsafe.Sizeof(Stream{}); size > 128 {
		t.Errorf("a Stream is %d bytes, want at most 128 (no lookahead inline)", size)
	}
	seed := NewSeed([]byte("fill-only"))
	dst := make([]byte, 8*512)
	var sink cipher.Stream // keeps the bare CTR on the heap, where a Stream's lives
	schedule := func() {
		b, _ := aes.NewCipher(seed[:16])
		sink = cipher.NewCTR(b, seed[16:])
	}
	stream := func() {
		s := NewStream(seed)
		s.Fill(dst[:512])
		s.Fill(dst[512:])
	}
	if got, want := testing.AllocsPerRun(100, stream), testing.AllocsPerRun(100, schedule)+1; got != want {
		t.Errorf("a Fill-only stream allocates %v objects, want %v (key schedule, CTR, Stream)", got, want)
	}
	if got, want := bytesPerRun(100, stream), bytesPerRun(100, schedule)+128; got > want {
		t.Errorf("a Fill-only stream allocates %d bytes, want at most %d (key schedule, CTR, a 128-byte Stream)", got, want)
	}
	_ = sink
}

// TestNeverBufferedStreamMatchesKeystream: one draw sequence — a Fill with
// no residue, a Seek to an unaligned offset, scalar draws, a Fill with a
// residue — run on a stream that has never refilled and on a zero Stream
// aimed by AtInto reads exactly the AES-CTR keystream, computed here
// straight from crypto/cipher.
func TestNeverBufferedStreamMatchesKeystream(t *testing.T) {
	seed := NewSeed([]byte("never-buffered"))
	want := make([]byte, 1<<13)
	b, err := aes.NewCipher(seed[:16])
	if err != nil {
		t.Fatal(err)
	}
	cipher.NewCTR(b, seed[16:]).XORKeyStream(want, want)

	var cursor Stream
	parent := NewStream(seed)
	parent.AtInto(&cursor, 0)
	for name, s := range map[string]*Stream{"NewStream": NewStream(seed), "AtInto cursor": &cursor} {
		got := make([]byte, 1024)
		s.Fill(got)
		if s.buf != nil {
			t.Errorf("%s: a Fill of whole lookaheads made the lookahead", name)
		}
		if !bytes.Equal(got, want[:1024]) {
			t.Errorf("%s: Fill(1024) differs from the keystream", name)
		}
		const off = 3000 + 5 // unaligned: Seek refills and skips 5 bytes
		s.Seek(off)
		var p [3]byte
		s.Read(p[:])
		if !bytes.Equal(p[:], want[off:off+3]) {
			t.Errorf("%s: Read after Seek(%d) differs from the keystream", name, off)
		}
		if v, w := s.Uint64(), binary.LittleEndian.Uint64(want[off+3:]); v != w {
			t.Errorf("%s: Uint64 after Seek(%d) = %#x, want %#x", name, off, v, w)
		}
		rest := make([]byte, 1500)
		s.Fill(rest)
		if !bytes.Equal(rest, want[off+11:off+11+1500]) {
			t.Errorf("%s: Fill after the scalar draws differs from the keystream", name)
		}
		if s.Offset() != off+11+1500 {
			t.Errorf("%s: Offset = %d, want %d", name, s.Offset(), off+11+1500)
		}
	}
	if parent.buf != nil || parent.Offset() != 0 {
		t.Error("AtInto drew from its parent")
	}
}
