package core

import (
	"context"
	"crypto/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/prg"
	"repro/internal/ring"
	"repro/internal/secagg"
)

// TestWireRoundAllocBudget is the allocation budget as a test: a warm
// round over loopback TCP allocates a small multiple of the vector
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
	rig := newWireRig(t, "tcp", cfg)
	rig.dial()
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
		for _, id := range cfg.ClientIDs {
			conn := rig.conn(id)
			wg.Add(1)
			go func() {
				defer wg.Done()
				wc := WireClientConfig{SecAgg: cfg, ID: id, Input: inputs[id], DropBefore: NoDrop, Rand: rand.Reader}
				if _, err := RunWireClient(ctx, wc, conn); err != nil {
					t.Errorf("client %d: %v", id, err)
				}
			}()
		}
		res, err := RunWireServer(ctx, WireServerConfig{SecAgg: cfg, StageDeadline: 30 * time.Second}, rig.srv)
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

// TestRunRoundAllocBudget is the same budget for the in-process round
// (ARCHITECTURE.md, "Round scratch"): a warm first-time-cohort round
// allocates a small multiple of the client vectors it aggregates.
//
// flat_cold's shape — 64 clients, 16384 coordinates in 8 chunks on SecAgg+,
// XNoise tolerating 16 dropouts with 8 taken. What is left is one slab of
// encodings, each client's masked copy per chunk, and a PRG stream per mask
// and noise component for the round; with every client re-expanding the
// rotation, every (client, chunk) copying its window and making its noise
// vector, and two AES-GCM key schedules per share envelope, the same round
// ran at 21× its vector bytes, at ≈10× while every chunk dealt its own
// Shamir sharings and sealed its own bundles, and at ≈8.5× while every
// chunk keyed its own noise and mask streams. Keyed once per round it runs
// at ≈5.4×, ≈7.5× under -race (a race build's sync.Pool drops a quarter of
// what it is handed: the samplers' uniform batches, the mask kernel's
// scratch); the budgets of 7 and 9 are those figures plus ~30 % and ~20 %,
// which also covers the 0.25 MB encoder each extra core adds.
//
// lsa_dropout's shape — 32 clients, 16384 coordinates in 4 chunks on
// LightSecAgg, U = 24 and T = D = 8, XNoise tolerating 8 dropouts with 4
// taken. What is left per (client,
// chunk) is 1× each of the random slab (mask ‖ noise), the coded shares,
// their ciphertexts and the received shares — n/(U−T) = 2 chunk vectors
// each, 1.5 for the first — plus the round's encodings and one lift slab;
// with a read buffer per fill, three buffers and two decodes per envelope,
// a share vector per peer, a copied mask and a lift slab per chunk, the
// same round ran at 23×, and at ≈11.4× with noise streams keyed per chunk.
// It runs at ≈10.9× now, ≈11.3× under -race; the budget of 13 covers both.
func TestRunRoundAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		proto                     Protocol
		n, dim, threshold, chunks int
		budget, raceBudget        uint64 // × the round's client-vector bytes
		tolerance, drops          int
	}{
		{ProtocolSecAggPlus, 64, 16384, 48, 8, 7, 9, 16, 8},
		{ProtocolLightSecAgg, 32, 16384, 24, 4, 13, 13, 8, 4},
	} {
		t.Run(tc.proto.String(), func(t *testing.T) {
			cfg := RoundConfig{
				Protocol: tc.proto, Codec: testCodec(tc.dim, tc.n), Threshold: tc.threshold, Chunks: tc.chunks,
				Tolerance: tc.tolerance, TargetMu: 100,
			}
			updates := randomUpdates(tc.n, tc.dim, 0.9)
			var drops []uint64
			for id := uint64(8); id <= uint64(8*tc.drops); id += 8 {
				drops = append(drops, id)
			}
			round := func(i uint64) {
				t.Helper()
				cfg.Round, cfg.Seed = i, prg.NewSeed([]byte("alloc-budget"), []byte{byte(i)})
				cfg.Sessions = NewSessionPool(1)
				res, err := RunRound(cfg, updates, drops, rand.Reader)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Survivors) != tc.n-len(drops) || res.Protocol != tc.proto || res.Chunks != cfg.Chunks {
					t.Fatalf("round %d: %d survivors on %v in %d chunks", i, len(res.Survivors), res.Protocol, res.Chunks)
				}
			}
			round(1) // warm: the mask kernel's scratch, the worker pools
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			round(2)
			runtime.ReadMemStats(&after)
			vectorBytes := uint64(tc.n * tc.dim * 8)
			got := after.TotalAlloc - before.TotalAlloc
			t.Logf("round allocated %.1f MB = %.2f× its %.1f MB of client vectors",
				float64(got)/1e6, float64(got)/float64(vectorBytes), float64(vectorBytes)/1e6)
			budget := tc.budget
			if raceBuild {
				budget = tc.raceBudget
			}
			if got > budget*vectorBytes {
				t.Fatalf("round allocated %d bytes, more than %d× its %d client-vector bytes", got, budget, vectorBytes)
			}
		})
	}
}
