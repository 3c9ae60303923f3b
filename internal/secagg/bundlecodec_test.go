package secagg

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/field"
	"repro/internal/shamir"
)

func testBundle(noiseSeeds int) ShareBundle {
	b := ShareBundle{From: 3, To: 9}
	for i := range b.MaskKey {
		b.MaskKey[i] = shamir.Share{X: field.New(uint64(i + 1)), Y: field.New(uint64(1000 + i))}
	}
	b.SelfSeed = shamir.Share{X: field.New(7), Y: field.New(4242)}
	for k := 0; k < noiseSeeds; k++ {
		b.NoiseSeeds = append(b.NoiseSeeds, shamir.Share{X: field.New(7), Y: field.New(uint64(90000 + k))})
	}
	return b
}

func TestBundleCodecRoundTrip(t *testing.T) {
	for _, seeds := range []int{0, 1, 3, 17} {
		in := testBundle(seeds)
		p, err := encodeBundle(in)
		if err != nil {
			t.Fatal(err)
		}
		if p[0] != bundleMagic {
			t.Fatalf("binary bundle leads with 0x%02X, want 0x%02X", p[0], bundleMagic)
		}
		out, err := decodeBundle(p)
		if err != nil {
			t.Fatalf("seeds=%d: %v", seeds, err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("seeds=%d: round trip mismatch:\n in: %+v\nout: %+v", seeds, in, out)
		}
	}
}

func TestBundleCodecMalformed(t *testing.T) {
	good, err := encodeBundle(testBundle(2))
	if err != nil {
		t.Fatal(err)
	}
	// Every truncation must error.
	for cut := 1; cut < len(good); cut++ {
		if _, err := decodeBundle(good[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, err := decodeBundle(append(good[:len(good):len(good)], 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	if _, err := decodeBundle(nil); err == nil {
		t.Fatal("empty bundle accepted")
	}
	bad := append([]byte(nil), good...)
	bad[1] = bundleVersion + 1
	if _, err := decodeBundle(bad); err == nil {
		t.Fatal("future version accepted")
	}
	// Hostile seed count over a tiny payload must not allocate or decode.
	bad = append([]byte(nil), good[:bundleFixedLen]...)
	bad[bundleFixedLen-4] = 0xFF
	bad[bundleFixedLen-3] = 0xFF
	bad[bundleFixedLen-2] = 0xFF
	bad[bundleFixedLen-1] = 0x7F
	if _, err := decodeBundle(bad); err == nil {
		t.Fatal("hostile seed count accepted")
	}
}

// TestBundleCodecFuzzSeeded throws deterministic random bytes at the
// decoder, then round-trips random valid bundles.
func TestBundleCodecFuzzSeeded(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 5000; i++ {
		buf := make([]byte, rng.Intn(256))
		rng.Read(buf)
		if rng.Intn(2) == 0 && len(buf) > 2 {
			buf[0], buf[1] = bundleMagic, bundleVersion
		}
		decodeBundle(buf)
	}
	for i := 0; i < 200; i++ {
		in := ShareBundle{From: rng.Uint64(), To: rng.Uint64()}
		for j := range in.MaskKey {
			in.MaskKey[j] = shamir.Share{X: field.New(rng.Uint64()), Y: field.New(rng.Uint64())}
		}
		in.SelfSeed = shamir.Share{X: field.New(rng.Uint64()), Y: field.New(rng.Uint64())}
		for k := 0; k < rng.Intn(8); k++ {
			in.NoiseSeeds = append(in.NoiseSeeds, shamir.Share{X: field.New(rng.Uint64()), Y: field.New(rng.Uint64())})
		}
		p, err := encodeBundle(in)
		if err != nil {
			t.Fatal(err)
		}
		out, err := decodeBundle(p)
		if err != nil {
			t.Fatalf("iter %d: %v", i, err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("iter %d: round trip mismatch", i)
		}
	}
}

func BenchmarkBundleEncodeBinary(b *testing.B) {
	bundle := testBundle(3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := encodeBundle(bundle); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBundleDecodeBinary(b *testing.B) {
	p, err := encodeBundle(testBundle(3))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := decodeBundle(p); err != nil {
			b.Fatal(err)
		}
	}
}
