package core

import (
	"crypto/rand"
	"fmt"
	"testing"

	"repro/internal/combine"
	"repro/internal/prg"
	"repro/internal/ring"
)

// BenchmarkShardedRound is the topology ablation: the same 64-client,
// XNoise round run flat (shards=1, RunRound's topology plus combiner
// bookkeeping) and sharded. On one box the shard rounds contend for the
// same cores, so this measures overhead, not the deployment speedup — the
// combiner-fold share of round time is BenchmarkCombinerFold16 below and
// the round benchmark's combine.fold_s row (go run -C bench .).
func BenchmarkShardedRound(b *testing.B) {
	const n, dim = 64, 256
	updates := randomUpdates(n, dim, 0.5)
	for _, s := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("shards=%d", s), func(b *testing.B) {
			cfg := ShardedRoundConfig{
				RoundConfig: RoundConfig{
					Round: 1, Protocol: ProtocolSecAgg, Codec: testCodec(dim, n),
					Threshold: 2, Chunks: 1, Tolerance: 2, TargetMu: 50,
					Seed: prg.NewSeed([]byte("shard-bench")),
				},
				Shards: s,
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := RunShardedRound(cfg, updates, nil, rand.Reader); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCombinerFold16 isolates the root combiner's own work at S=16:
// folding 16 shard partials (modular vector adds plus survivor-set
// merges) into a sealed report. This is the numerator of the acceptance
// ratio — combiner fold time over shard round time.
func BenchmarkCombinerFold16(b *testing.B) {
	const shards, dim = 16, 4096
	partials := make([]combine.Partial, shards)
	for s := range partials {
		v := ring.NewVector(16, dim)
		for i := range v.Data {
			v.Data[i] = uint64(s*dim + i)
		}
		survivors := make([]uint64, 8)
		for i := range survivors {
			survivors[i] = uint64(s*10 + i + 1)
		}
		partials[s] = combine.Partial{
			Shard: uint64(s), Round: 1, Sum: v, Survivors: survivors,
		}
	}
	shardIDs := make([]uint64, shards)
	for i := range shardIDs {
		shardIDs[i] = uint64(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		comb, err := combine.New(1, shardIDs, 0)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range partials {
			if err := comb.Add(p); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := comb.Seal(); err != nil {
			b.Fatal(err)
		}
	}
}
