package core

import (
	"context"
	"crypto/rand"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/ring"
	"repro/internal/secagg"
	"repro/internal/transport"
	"repro/internal/xnoise"
)

// Wire-round benchmark: a 64-client XNoise round over the in-memory
// transport, driven by the streaming engine (RunWireServer). The barriered
// reference driver this used to be measured against is in git history
// (CHANGES.md, PR 13), with its before-numbers.

func benchWireRound64(b *testing.B, dim int) {
	const n = 64
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(i + 1)
	}
	tol := n / 4
	plan := &xnoise.Plan{
		NumClients: n, DropoutTolerance: tol, Threshold: n - tol, TargetVariance: 100,
	}
	saCfg := secagg.Config{
		Round: 1, ClientIDs: ids, Threshold: n - tol, Bits: 20, Dim: dim, XNoise: plan,
	}
	inputs := make(map[uint64]ring.Vector, n)
	for _, id := range ids {
		inputs[id] = ring.NewVector(20, dim)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net := transport.NewMemoryNetwork(256)
		conns := make(map[uint64]transport.ClientConn, n)
		for _, id := range ids {
			c, err := net.Connect(id)
			if err != nil {
				b.Fatal(err)
			}
			conns[id] = c
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
		var wg sync.WaitGroup
		for _, id := range ids {
			id := id
			wg.Add(1)
			go func() {
				defer wg.Done()
				cfg := WireClientConfig{
					SecAgg: saCfg, ID: id, Input: inputs[id],
					DropBefore: NoDrop, Rand: rand.Reader,
				}
				_, _ = RunWireClient(ctx, cfg, conns[id])
			}()
		}
		srvCfg := WireServerConfig{SecAgg: saCfg, StageDeadline: time.Minute}
		_, err := RunWireServer(ctx, srvCfg, net.Server())
		cancel()
		wg.Wait()
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireRound64 is a full 64-client XNoise wire round at the
// QuickScale dimensions.
func BenchmarkWireRound64(b *testing.B) {
	for _, dim := range []int{4096, 16384} {
		b.Run(fmt.Sprintf("dim=%d", dim), func(b *testing.B) {
			benchWireRound64(b, dim)
		})
	}
}
