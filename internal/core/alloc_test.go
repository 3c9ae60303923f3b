package core

import (
	"context"
	"crypto/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/ring"
	"repro/internal/secagg"
)

// TestWireRoundAllocBudget is ROADMAP direction 3's budget as a test: a
// warm round over loopback TCP allocates a small multiple of the vector
// bytes it aggregates. Frames are leased and the masked vectors fold
// straight from them, so what is left is the clients' own copies (their
// masked vector, their decoded result) and the server's accumulators;
// with every frame made, decoded into a second slice and encoded into a
// third, the same round ran at about seven times its vector bytes.
func TestWireRoundAllocBudget(t *testing.T) {
	const (
		clients = 8
		dim     = 65536
		budget  = 4 // × the round's vector bytes
	)
	cfg := secagg.Config{Round: 1, Threshold: 5, Bits: 20, Dim: dim}
	for id := uint64(1); id <= clients; id++ {
		cfg.ClientIDs = append(cfg.ClientIDs, id)
	}
	srv, conns := eqTCPNet(t, cfg.ClientIDs)
	inputs := make(map[uint64]ring.Vector, clients)
	for _, id := range cfg.ClientIDs {
		v := ring.NewVector(cfg.Bits, dim)
		for j := range v.Data {
			v.Data[j] = id
		}
		inputs[id] = v
	}
	round := func() {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		var wg sync.WaitGroup
		for id, conn := range conns {
			wg.Add(1)
			go func() {
				defer wg.Done()
				wc := WireClientConfig{SecAgg: cfg, ID: id, Input: inputs[id], DropBefore: NoDrop, Rand: rand.Reader}
				if _, err := RunWireClient(ctx, wc, conn); err != nil {
					t.Errorf("client %d: %v", id, err)
				}
			}()
		}
		res, err := RunWireServer(ctx, WireServerConfig{SecAgg: cfg, StageDeadline: 30 * time.Second}, srv)
		wg.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if want := uint64(clients * (clients + 1) / 2); len(res.Sum) != dim || res.Sum[0] != want || res.Sum[dim-1] != want {
			t.Fatalf("sum[0] = %d, want %d", res.Sum[0], want)
		}
	}
	round() // warm: the free list, the mask kernel's scratch, the TCP buffers
	cfg.Round = 2
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	round()
	runtime.ReadMemStats(&after)
	vectorBytes := uint64(clients * dim * 8)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("round allocated %.1f MB = %.2f× its %.1f MB of vectors",
		float64(got)/1e6, float64(got)/float64(vectorBytes), float64(vectorBytes)/1e6)
	if got > budget*vectorBytes {
		t.Fatalf("round allocated %d bytes, more than %d× its %d vector bytes", got, budget, vectorBytes)
	}
}
