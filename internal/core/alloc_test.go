package core

import (
	"context"
	"crypto/rand"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/prg"
	"repro/internal/ring"
	"repro/internal/secagg"
	"repro/internal/secaggplus"
	"repro/internal/xnoise"
)

// TestWireRoundAllocBudget is the allocation budget as a test: a warm
// round over loopback TCP allocates a fraction of the vector bytes it
// aggregates. Frames are leased, the masked vectors fold straight from
// them, and a client masks its upload in its one buffer and receives the
// round's sum into the same buffer, borrowed from the result frame. What
// is left:
//   - session-less, each client's buffer, made once per round, and the
//     server's accumulators;
//   - on a warm session (the continuing service), only the server's
//     accumulators, since every client's session keeps its buffer;
//   - with in-protocol XNoise, also each client's noise streams and seed
//     shares and the server's removal noise: a client adds its noise
//     components straight into its upload, with no Dim-long total.
//
// With every frame made, decoded into a second slice and encoded into a
// third, the session-less round ran at about seven times its vector
// bytes, at 2.4× while a client cloned its input into the upload and
// decoded the result into a fresh slice, and at ≈1.35× (≈1.38× under
// -race) while the server copied its sum out of Finalize; a session round
// ran at ≈0.35× (≈0.37×) then. On two cores they run at ≈1.23× (≈1.25×)
// and ≈0.22× (≈0.23×). The XNoise round ran at ≈2.9× (≈3.0×) while every
// client made its noise total and at ≈1.5× while every client leased it
// (at 16384 coordinates, where the free list held every total, ≈1.9×); it
// runs at ≈1.37× (≈1.40×) now. The
// budgets are those figures plus ~30 %. Each further core adds up to
// perCore: the mask kernel aims a cursor at every stream once per worker
// past the first (≈0.01× a core, ≈0.02× under -race, whose sync.Pool
// drops a quarter of them).
func TestWireRoundAllocBudget(t *testing.T) {
	const (
		clients = 8
		perCore = 0.025
	)
	for _, tc := range []struct {
		name               string
		sessions, xnoise   bool
		dim                int
		budget, raceBudget float64 // × the round's vector bytes, on two cores
	}{
		{"session-less", false, false, 65536, 1.6, 1.65},
		{"session", true, false, 65536, 0.29, 0.3},
		{"session-less xnoise", false, true, 65536, 1.8, 1.82},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dim := tc.dim
			cfg := secagg.Config{Threshold: 5, Bits: 20, Dim: dim}
			for id := uint64(1); id <= clients; id++ {
				cfg.ClientIDs = append(cfg.ClientIDs, id)
			}
			if tc.xnoise {
				cfg.XNoise = &xnoise.Plan{NumClients: clients, DropoutTolerance: 2, Threshold: 5, TargetVariance: 16}
			}
			rig := newWireRig(t, "tcp", cfg)
			if tc.sessions {
				rig.sessions()
			}
			rig.dial()
			inputs := make(map[uint64]ring.Vector, clients)
			for _, id := range cfg.ClientIDs {
				v := ring.NewVector(cfg.Bits, dim)
				for j := range v.Data {
					v.Data[j] = id
				}
				inputs[id] = v
			}
			round := func(i uint64) {
				t.Helper()
				cfg.Round = i
				// A session round after the first resumes on the cached
				// roster, one ratchet step further.
				resume := tc.sessions && i > 1
				if resume {
					cfg.KeyRatchet = i - 1
				}
				ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
				defer cancel()
				var wg sync.WaitGroup
				for _, id := range cfg.ClientIDs {
					conn := rig.conn(id)
					wg.Add(1)
					go func() {
						defer wg.Done()
						wc := WireClientConfig{SecAgg: cfg, ID: id, Input: inputs[id], DropBefore: NoDrop, Rand: rand.Reader,
							Session: rig.clientSess[id], Resume: resume}
						if _, err := RunWireClient(ctx, wc, conn); err != nil {
							t.Errorf("client %d: %v", id, err)
						}
					}()
				}
				res, err := RunWireServer(ctx, WireServerConfig{SecAgg: cfg, StageDeadline: 30 * time.Second,
					Session: rig.serverSess, Resume: resume}, rig.srv)
				wg.Wait()
				if err != nil {
					t.Fatal(err)
				}
				// XNoise leaves noise of variance ≈16 in the sum: 64 is
				// sixteen of its deviations.
				want, slack := uint64(clients*(clients+1)/2), uint64(0)
				if tc.xnoise {
					slack = 64
				}
				if len(res.Sum) != dim {
					t.Fatalf("sum of %d coordinates, want %d", len(res.Sum), dim)
				}
				for _, got := range []uint64{res.Sum[0], res.Sum[dim-1]} {
					if (got-want+slack)&(1<<cfg.Bits-1) > 2*slack {
						t.Fatalf("sum coordinate %d, want %d ± %d", got, want, slack)
					}
				}
			}
			// Warm: the free list, the mask kernel's scratch, the TCP
			// buffers and, on sessions, the first resumed round. Then the
			// least of three rounds: a frame that finds its size class of
			// the free list momentarily empty is a make, and how often
			// that happens is scheduling, not the program.
			round(1)
			round(2)
			got := uint64(math.MaxUint64)
			for i := uint64(3); i <= 5; i++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				round(i)
				runtime.ReadMemStats(&after)
				got = min(got, after.TotalAlloc-before.TotalAlloc)
			}
			vectorBytes := uint64(clients * dim * 8)
			ratio := float64(got) / float64(vectorBytes)
			t.Logf("round allocated %.2f MB = %.2f× its %.1f MB of vectors",
				float64(got)/1e6, ratio, float64(vectorBytes)/1e6)
			budget := tc.budget
			if raceBuild {
				budget = tc.raceBudget
			}
			budget += perCore * float64(max(runtime.GOMAXPROCS(0)-2, 0))
			if ratio > budget {
				t.Fatalf("round allocated %d bytes, more than %.2f× its %d vector bytes", got, budget, vectorBytes)
			}
		})
	}
}

// TestRunRoundAllocBudget is the same budget for the in-process round
// (ARCHITECTURE.md, "Round scratch"): a warm first-time-cohort round
// allocates a small multiple of the client vectors it aggregates. Each
// round opens a fresh session pool, as a new cohort does, so nothing a
// session keeps carries over; its scratch does, handed back to the free
// lists the warm round filled, as does the encoding slab.
//
// flat_cold's shape — 64 clients, 16384 coordinates in 8 chunks on SecAgg+,
// XNoise tolerating 16 dropouts with 8 taken. What is left:
//   - the server's accumulators (each client's one buffer is its
//     session's, leased, kept across the chunks and handed back);
//   - a PRG stream per mask and noise component for the round: each
//     stream drawn from costs an AES block and a CTR, half a kilobyte each
//     (the CTR copies the key schedule), and no lookahead unless a draw
//     needs one. Every chunk draws its masks from where the previous chunk
//     left the stream (the windows lie end to end), so nothing is re-aimed;
//   - the first sub-round's parties, deal and routing: the sessions keep
//     the server, the clients and their stage tables, and every later
//     sub-round re-aims them (TestSubRoundOnDealAllocBound).
//
// With every client re-expanding the rotation, every (client, chunk)
// copying its window and making its noise vector, and two AES-GCM key
// schedules per share envelope, the same round ran at 21× its vector
// bytes, at ≈10× while every chunk dealt its own Shamir sharings and
// sealed its own bundles, at ≈8.5× while every chunk keyed its own noise
// and mask streams, at ≈5.4× (≈7.5× under -race, whose sync.Pool drops a
// quarter of what it is handed: the samplers' uniform batches, the mask
// kernel's scratch) once they were keyed per round, and at ≈4.4× (≈6.5×)
// while every client cloned its input per chunk. Since the round leases
// its slab instead of making it, validates its SecAgg+ config once instead
// of per chunk and tests membership on sorted lists instead of maps, it
// ran at ≈3.1× (≈5.3× under -race) while the server grew its share relay
// and its share lists by appending and every sub-round on the deal rebuilt
// its delivery map and its reveal, at ≈2.5× (≈4.7× under -race) while
// every client made its buffer, at ≈2.4× (≈4.6× under -race) while
// every chunk re-aimed a cursor, a CTR each, into every mask stream, and at
// ≈1.66× (≈3.5× under -race) while every stream carried a 512-byte
// lookahead inline and every (pair, chunk) lookup copied its peer's key
// into a string, and at ≈1.46× (≈3.35× under -race) while every (client,
// sub-round) on the deal rebuilt its mask list, copied U3 twice and grew
// its secret caches from empty, and at ≈1.33× (≈3.16× under -race) while
// every client session copied the roster it stored and every (client,
// sub-round) moved its result, and every stamped uplink, to the heap, and
// at ≈1.29× (≈3.10× under -race) while every sub-round built its server,
// its clients and their stage tables, routed the shares again and
// reconstructed the same self seeds again. It runs at ≈0.97× now, ≈2.82×
// under -race.
//
// lsa_dropout's shape — 32 clients, 16384 coordinates in 4 chunks on
// LightSecAgg, U = 24 and T = D = 8, XNoise tolerating 8 dropouts with 4
// taken. What is left is the cohort's channel keys (an AES-GCM key per
// directed pair), the server's relay and sums and each chunk's field and
// ring sum vectors. Each client's session leases its slabs
// (lightsecagg.Session) at chunk 0, re-slices them for the others (all
// four chunks are equal here) and hands them back when the round returns, so a warm round makes
// none: the random slab (mask ‖ noise, 1.5 chunk vectors), the received
// slab and the ciphertext slab (n/(U−T) = 2 chunk vectors each). With a
// read buffer per fill, three buffers and two decodes per envelope, a
// share vector per peer, a copied mask and a lift slab per chunk, the same
// round ran at 23×, at ≈11.4× with noise streams keyed per chunk, at
// ≈10.9× (≈11.3× under -race) while every (client, chunk) made four slabs
// and the round a lift slab, at ≈4.0× (≈4.4×) while the round made its
// encoding slab, at ≈3.0× (≈3.4×) while every session made its slabs, at
// ≈1.5× while the decoder built five dim-long vectors, and at ≈1.09×
// (≈1.5× under -race) while every noise stream carried its lookahead
// inline and every channel-key lookup copied its peer's key into a
// string, and at ≈1.00× (≈1.45× under -race) while every client grew its
// channel-key cache from empty. It runs at ≈0.96× now, ≈1.40× under
// -race.
//
// LightSecAgg's budget is its figure plus ~15 % and 0.06× — the 0.25 MB
// encoder — for each core past two (it reads ≈1.03× at GOMAXPROCS 4 and
// ≈1.16× at 8); SecAgg+'s is its figure plus ~12 % and 0.05× for each core
// past two (it reads ≈1.00× at GOMAXPROCS 4 and ≈1.09× at 8). The -race
// budgets are their figures plus ~15–18 %.
func TestRunRoundAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		proto                     Protocol
		n, dim, threshold, chunks int
		budget, raceBudget        float64 // × the round's client-vector bytes
		perCore                   float64 // added to budget per core past two
		tolerance, drops          int
	}{
		{ProtocolSecAggPlus, 64, 16384, 48, 8, 1.1, 3.35, 0.05, 16, 8},
		{ProtocolLightSecAgg, 32, 16384, 24, 4, 1.1, 1.65, 0.06, 8, 4},
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
			budget := tc.budget + tc.perCore*float64(max(runtime.GOMAXPROCS(0)-2, 0))
			if raceBuild {
				budget = tc.raceBudget
			}
			if float64(got) > budget*float64(vectorBytes) {
				t.Fatalf("round allocated %d bytes, more than %.1f× its %d client-vector bytes", got, budget, vectorBytes)
			}
		})
	}
}

// TestSubRoundOnDealAllocBound: a sub-round on its step's deal builds
// nothing but its masked window. On flat_cold's SecAgg+ shape — 64
// clients, t = 48, every eighth dropped before its masked input,
// 2048-coordinate chunks — RunWithSessions keeps the round's parties on
// its sessions: the server, re-aimed with its stage maps emptied in
// place, hands out the step's kept deliveries and reuses the self seeds it
// reconstructed from the same shares; each client, re-aimed on its deal,
// walks the same stage table on the same walk scratch. What a sub-round
// after the first still allocates is its masked sum (the window the
// result hands over), the messages boxed for the engine, the stages' id
// sets and result lists, and each ForEach's workers. It measures ≈380
// objects and 19–30 KiB beyond the window on two cores (at most 387
// objects and 29.6 KiB over 105 sub-rounds); each core past two adds
// ForEach workers, ≈7 objects a sub-round, and at GOMAXPROCS 8 on two
// cores the runtime now and then makes new goroutines (up to 444 objects
// and 46 KiB). While every sub-round built its server and clients, it
// allocated ≈1,965 objects and ≈0.34 MB. The bounds are the two-core
// maxima plus ~15 % of the objects and ~35 % of the bytes, and 10
// objects and 4 KiB a core past two.
func TestSubRoundOnDealAllocBound(t *testing.T) {
	if raceBuild {
		t.Skip("a -race build allocates on its own schedule")
	}
	const (
		n, dim, chunks = 64, 2048, 8
		perCore        = 10
	)
	cores := uint64(max(runtime.GOMAXPROCS(0)-2, 0))
	maxObjects, maxBytes := 440+perCore*cores, (40+4*cores)<<10 // bytes beyond the masked window
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(i + 1)
	}
	cfg, err := newPlusConfig(secagg.Config{ClientIDs: ids, Threshold: 48, Bits: 20, Dim: dim},
		secaggplus.RecommendedDegree(n))
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	inputs := make(map[uint64]ring.Vector, n)
	drops := make(secagg.DropSchedule)
	var want uint64
	for _, id := range ids {
		v := ring.NewVector(cfg.Bits, dim)
		for j := range v.Data {
			v.Data[j] = id
		}
		inputs[id] = v
		if id%8 == 0 {
			drops[id] = secagg.StageMaskedInput
		} else {
			want += id
		}
	}
	sess, err := secagg.NewRoundSessions(ids, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	window := uint64(dim * 8)
	for c := range chunks {
		sub := cfg
		sub.Round, sub.MaskEpoch = uint64(c), uint64(c)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rr, err := secagg.RunWithSessions(sub, inputs, nil, drops, rand.Reader, sess)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("sub-round %d: %v", c, err)
		}
		for j, got := range rr.Result.Sum {
			if got != want {
				t.Fatalf("sub-round %d: coordinate %d sums to %d, want %d", c, j, got, want)
			}
		}
		objects, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
		t.Logf("sub-round %d: %d objects, %d B (%d B beyond its %d B window)", c, objects, bytes, bytes-window, window)
		if c > 0 && (objects > maxObjects || bytes > window+maxBytes) {
			t.Fatalf("sub-round %d on the deal allocated %d objects and %d B; want ≤ %d and ≤ %d B beyond its %d B window",
				c, objects, bytes, maxObjects, maxBytes, window)
		}
	}
}
