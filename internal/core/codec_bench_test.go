package core

import (
	"testing"

	"repro/internal/secagg"
)

// The wire-codec benchmarks measure the per-hop cost of the dim-length
// masked-input message — the dominant payload of a round (ISSUE: 100k-dim
// vector encode/decode).

func benchMaskedMsg(dim int) secagg.MaskedInputMsg {
	y := make([]uint64, dim)
	for i := range y {
		y[i] = uint64(i) & ((1 << 20) - 1)
	}
	return secagg.MaskedInputMsg{From: 42, Y: y}
}

func BenchmarkWireEncodeBinary100k(b *testing.B) {
	msg := benchMaskedMsg(100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := encodeMaskedInput(msg)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(p)))
	}
}

func BenchmarkWireDecodeBinary100k(b *testing.B) {
	msg := benchMaskedMsg(100000)
	p, err := encodeMaskedInput(msg)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(p)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decodeMaskedInput(p); err != nil {
			b.Fatal(err)
		}
	}
}
