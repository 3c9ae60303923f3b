package secagg

import (
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
		if _, _, err := decodeBundle(p, nil); err != nil {
			b.Fatal(err)
		}
	}
}
