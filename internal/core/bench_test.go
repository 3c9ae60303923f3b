package core

import (
	"crypto/rand"
	"fmt"
	"testing"

	"repro/internal/dh"
	"repro/internal/prg"
)

// BenchmarkRunRoundChunks is the executor-side chunk ablation: the same
// real aggregation round (5 clients, 8192-dim, XNoise) at different chunk
// counts. Wall-clock differences here reflect in-process concurrency, not
// the deployment latencies the Appendix-C simulator models — the bench
// demonstrates that chunking adds no meaningful overhead to the real work.
func BenchmarkRunRoundChunks(b *testing.B) {
	const n, dim = 5, 8000
	updates := randomUpdates(n, dim, 0.5)
	for _, m := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			cfg := RoundConfig{
				Round: 1, Protocol: ProtocolSecAgg, Codec: testCodec(dim, n),
				Threshold: 3, Chunks: m, Tolerance: 2, TargetMu: 50,
				Seed: prg.NewSeed([]byte("bench")),
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := RunRound(cfg, updates, []uint64{2}, rand.Reader); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchRound64Chunk8 is the acceptance benchmark of the key-agreement
// amortization: a 64-client, 8-chunk, dim-4096 XNoise round with 8
// dropouts, with fresh keys per chunk (m·n·k X25519 agreements — the
// historical behavior) or one session set per round (n·k agreements,
// per-chunk mask streams forked by KDF). Run on either substrate; the
// measured delta is in CHANGES.md (PR 1).
func benchRound64Chunk8(b *testing.B, proto Protocol, amortized bool) {
	const n, dim, chunks = 64, 4096, 8
	updates := randomUpdates(n, dim, 0.5)
	drops := make([]uint64, 8)
	for i := range drops {
		drops[i] = uint64(i*n/len(drops) + 1)
	}
	cfg := RoundConfig{
		Round: 1, Protocol: proto, Codec: testCodec(dim, n),
		Threshold: 48, Chunks: chunks, Tolerance: 16, TargetMu: 100,
		Seed: prg.NewSeed([]byte("bench64x8")),
	}
	a0 := dh.AgreeCount()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if amortized {
			// A fresh pool per round keeps iterations independent (no
			// cross-round ratchet), isolating the within-round m·n·k → n·k win.
			cfg.Sessions = NewSessionPool(1)
		}
		if _, err := RunRound(cfg, updates, drops, rand.Reader); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(dh.AgreeCount()-a0)/float64(b.N), "agreements/op")
}

func BenchmarkRound64Chunk8PerChunkKeys(b *testing.B) {
	benchRound64Chunk8(b, ProtocolSecAgg, false)
}

func BenchmarkRound64Chunk8Amortized(b *testing.B) {
	benchRound64Chunk8(b, ProtocolSecAgg, true)
}

// The SecAgg+ sparse-graph variants compose both levers: O(n·k) pairs from
// the graph, one agreement per pair from the session.
func BenchmarkRound64Chunk8SecAggPlusPerChunkKeys(b *testing.B) {
	benchRound64Chunk8(b, ProtocolSecAggPlus, false)
}

func BenchmarkRound64Chunk8SecAggPlusAmortized(b *testing.B) {
	benchRound64Chunk8(b, ProtocolSecAggPlus, true)
}

// The LightSecAgg-substrate variants exercise the same amortization
// question on the unified engine path: without sessions every chunk
// regenerates channel keys and re-agrees (m·n key pairs, ~m·n² channel
// agreements); with a SessionPool the round pays one key generation per
// client and one agreement per ordered pair, and resumed rounds skip the
// advertise stage outright.
func BenchmarkRound64Chunk8LightSecAggPerChunkKeys(b *testing.B) {
	benchRound64Chunk8(b, ProtocolLightSecAgg, false)
}

func BenchmarkRound64Chunk8LightSecAggAmortized(b *testing.B) {
	benchRound64Chunk8(b, ProtocolLightSecAgg, true)
}

// BenchmarkRunRoundSecAggPlus compares the two protocol substrates on the
// same round.
func BenchmarkRunRoundSecAggPlus(b *testing.B) {
	const n, dim = 12, 4000
	updates := randomUpdates(n, dim, 0.5)
	for _, proto := range []Protocol{ProtocolSecAgg, ProtocolSecAggPlus} {
		b.Run(proto.String(), func(b *testing.B) {
			cfg := RoundConfig{
				Round: 1, Protocol: proto, Degree: 6,
				Codec: testCodec(dim, n), Threshold: 4, Chunks: 2,
				Seed: prg.NewSeed([]byte("bench2")),
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := RunRound(cfg, updates, nil, rand.Reader); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
