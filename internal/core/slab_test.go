package core

import (
	"crypto/rand"
	"fmt"
	"io"
	"maps"
	"math"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/lightsecagg"
	"repro/internal/prg"
	"repro/internal/ring"
	"repro/internal/secagg"
	"repro/internal/secaggplus"
	"repro/internal/skellam"
	"repro/internal/transport"
	"repro/internal/xnoise"
)

// encodedSum is the slab tests' oracle, outside the round: one Encode per
// client (ids 1..len(updates)) on the round's per-client rounding streams,
// summed over the clients not in drops, and how many those are.
func encodedSum(t *testing.T, codec skellam.Params, seed prg.Seed, updates map[uint64][]float64, drops []uint64) (ring.Vector, int) {
	t.Helper()
	sum := ring.NewVector(codec.Bits, codec.PaddedDim())
	encStream := prg.NewStream(prg.NewSeed(seed[:], []byte("encode")))
	survivors := 0
	for id := uint64(1); id <= uint64(len(updates)); id++ {
		v, err := skellam.Encode(codec, updates[id], encStream.Fork(fmt.Sprintf("c%d", id)))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Contains(drops, id) {
			survivors++
			if err := sum.AddInPlace(v); err != nil {
				t.Fatal(err)
			}
		}
	}
	return sum, survivors
}

// TestChunkedRoundDealsOnce: on pooled sessions, a chunk pays for its
// coordinates, not for a deal. Every chunk after the first reuses the
// round's one Shamir deal — no self seed, no sharing, no sealing — so an
// 8-chunk round draws exactly the entropy a 1-chunk round on the same
// roster draws (the sessions' keys plus one deal per client), on SecAgg and
// on SecAgg+, with clients dropping before the upload and one before
// unmasking. The sums are still exact against the slab oracle.
func TestChunkedRoundDealsOnce(t *testing.T) {
	const dim = 256
	for _, tc := range []struct {
		proto        Protocol
		n, threshold int
	}{{ProtocolSecAgg, 12, 8}, {ProtocolSecAggPlus, 40, 24}} {
		codec := testCodec(dim, tc.n)
		updates := randomUpdates(tc.n, dim, 0.9)
		drops := []uint64{3, 7}
		cfg := RoundConfig{Round: 1, Protocol: tc.proto, Codec: codec, Threshold: tc.threshold,
			Seed: prg.NewSeed([]byte("deals-once")), DropSchedule: secagg.DropSchedule{10: secagg.StageUnmasking}}
		want, _ := encodedSum(t, codec, cfg.Seed, updates, drops)
		read := make(map[int]int64)
		for _, chunks := range []int{1, 8} {
			cfg.Chunks, cfg.Sessions = chunks, NewSessionPool(1)
			counter := &countingReader{}
			p, err := runRoundRing(cfg, updates, drops, counter)
			if err != nil {
				t.Fatalf("%v, %d chunk(s): %v", tc.proto, chunks, err)
			}
			if p.Protocol != tc.proto || p.Chunks != chunks {
				t.Fatalf("%v: ran %d chunk(s) on %v", tc.proto, p.Chunks, p.Protocol)
			}
			for i, w := range want.Data {
				if p.Sum.Data[i] != w {
					t.Fatalf("%v, %d chunk(s): coordinate %d is %d, want %d", tc.proto, chunks, i, p.Sum.Data[i], w)
				}
			}
			read[chunks] = counter.n.Load()
		}
		if read[8] != read[1] {
			t.Fatalf("%v: an 8-chunk round drew %d entropy bytes, a 1-chunk round %d", tc.proto, read[8], read[1])
		}
	}
}

// countingReader is crypto/rand counting the bytes read through it, bar
// one-byte reads: X25519 key generation reads one byte or none at random
// before the key (crypto/internal/randutil.MaybeReadByte), and nothing the
// round deals is one byte long.
type countingReader struct{ n atomic.Int64 }

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := rand.Read(p)
	if n > 1 {
		c.n.Add(int64(n))
	}
	return n, err
}

// TestRunRoundSlabIsolation: chunk inputs are windows of one slab and
// XNoise is added straight into them, so nothing may cross a window: not
// a neighbouring chunk's noise, not the previous client's, not any noise
// on a dropped client's window or twice on a survivor's. A sampler that ignores its stream and
// adds a constant per component makes that exact: with |D| clients dropped
// before upload, every coordinate of the ring aggregate must be the plain
// sum of the survivors' encodings — computed here by skellam.Encode, a
// vector per client — plus |survivors| · Σ_{k ≤ |D|} c_k, on both
// substrates, at 1 chunk, at 2, at 3 (85 + 85 + 86 coordinates: the last
// chunk outgrows the session slabs chunk 0 sized, and its mask window lies
// past the shorter chunks') and at 8, twice over the same
// updates map. The LightSecAgg rows run their rounds as consecutive
// rounds of one session pool, so every chunk after the first resumes its
// round's sessions: a received row, a ciphertext or a mask that outlived
// its chunk would move the sum.
func TestRunRoundSlabIsolation(t *testing.T) {
	const n, dim, tolerance, targetMu = 12, 200, 3, 40
	codec := testCodec(dim, n)
	updates := randomUpdates(n, dim, 0.9)
	drops := []uint64{3, 7}
	late := secagg.DropSchedule{10: secagg.StageUnmasking}
	constant := func(variance float64) int64 { return int64(math.Round(16*variance)) + 1 }
	sampler := func(_ *prg.Stream, variance float64, out []int64) {
		for i := range out {
			out[i] += constant(variance)
		}
	}
	base := RoundConfig{Round: 1, Codec: codec, Threshold: 8, Seed: prg.NewSeed([]byte("slab")),
		Sampler: sampler, DropSchedule: late}

	plain, survivors := encodedSum(t, codec, base.Seed, updates, drops)
	plan := xnoise.Plan{NumClients: n, DropoutTolerance: tolerance, Threshold: base.Threshold, TargetVariance: targetMu}
	var kept int64
	for k := 0; k <= len(drops); k++ {
		v, err := plan.ComponentVariance(k)
		if err != nil {
			t.Fatal(err)
		}
		kept += constant(v)
	}
	noised := plain.Clone()
	for i := range noised.Data {
		noised.Data[i] = (noised.Data[i] + uint64(survivors)*uint64(kept)) & noised.Mask()
	}

	for _, proto := range []Protocol{ProtocolSecAgg, ProtocolLightSecAgg} {
		for _, chunks := range []int{1, 2, 3, 8} {
			pool := NewSessionPool(1)
			for round, tc := range []struct {
				tolerance int
				targetMu  float64
				want      ring.Vector
			}{{0, 0, plain}, {tolerance, targetMu, noised}, {tolerance, targetMu, noised}} {
				cfg := base
				cfg.Protocol, cfg.Chunks = proto, chunks
				cfg.Tolerance, cfg.TargetMu = tc.tolerance, tc.targetMu
				if proto == ProtocolLightSecAgg {
					cfg.Round, cfg.Sessions = uint64(round+1), pool
				}
				p, err := runRoundRing(cfg, updates, drops, rand.Reader)
				if err != nil {
					t.Fatalf("%v, %d chunk(s), tolerance %d: %v", proto, chunks, tc.tolerance, err)
				}
				if p.Chunks != chunks || len(p.Survivors) != survivors || len(p.LateDropped) != 1 {
					t.Fatalf("%v: ran %d chunk(s) with %d survivors, %d late", proto, p.Chunks, len(p.Survivors), len(p.LateDropped))
				}
				for i, w := range tc.want.Data {
					if p.Sum.Data[i] != w {
						t.Fatalf("%v, %d chunk(s), tolerance %d: coordinate %d is %d, want %d (plain sum %d)",
							proto, chunks, tc.tolerance, i, p.Sum.Data[i], w, plain.Data[i])
					}
				}
			}
		}
	}
}

// TestChunkedRoundRemovesNoiseExactly: each chunk adds the next
// chunk-length of every survivor's noise components and removes the next
// chunk-length of the removed ones, so the two sides must read the same
// windows of the same streams. A sampler that adds large stream-derived
// values at the removable components' variances and nothing at component
// 0's makes that exact: with no client dropped every removable component
// is removed, so an XNoise round must decode to exactly the Sum of the same
// round without XNoise — at 1 chunk, at 2, at 3 and at 8, on both substrates, on
// session pools (so the masks of chunks after the first are later windows
// too). A reader restarted per chunk on either side moves the sum.
func TestChunkedRoundRemovesNoiseExactly(t *testing.T) {
	const n, dim, tolerance, threshold, targetMu = 12, 200, 3, 8, 40
	codec := testCodec(dim, n)
	updates := randomUpdates(n, dim, 0.9)
	plan := xnoise.Plan{NumClients: n, DropoutTolerance: tolerance, Threshold: threshold, TargetVariance: targetMu}
	kept, err := plan.ComponentVariance(0)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= tolerance; k++ {
		if v, err := plan.ComponentVariance(k); err != nil || v == kept {
			t.Fatalf("component %d: variance %v (%v) is component 0's", k, v, err)
		}
	}
	sampler := func(s *prg.Stream, variance float64, out []int64) {
		if variance == kept {
			return
		}
		for i := range out {
			out[i] += int64(s.Uint64() >> 40)
		}
	}
	for _, proto := range []Protocol{ProtocolSecAgg, ProtocolLightSecAgg} {
		cfg := RoundConfig{Round: 1, Protocol: proto, Codec: codec, Threshold: threshold,
			Seed: prg.NewSeed([]byte("exact-removal")), Sampler: sampler}
		for _, chunks := range []int{1, 2, 3, 8} {
			var sums [2][]float64
			for i, tol := range []int{0, tolerance} {
				cfg.Chunks, cfg.Sessions = chunks, NewSessionPool(1)
				cfg.Tolerance, cfg.TargetMu = tol, float64(tol)*targetMu/tolerance
				res, err := RunRound(cfg, updates, nil, rand.Reader)
				if err != nil {
					t.Fatalf("%v, %d chunk(s), tolerance %d: %v", proto, chunks, tol, err)
				}
				sums[i] = res.Sum
			}
			if !slices.Equal(sums[0], sums[1]) {
				t.Fatalf("%v, %d chunk(s): the XNoise round does not decode to the plain round's sum", proto, chunks)
			}
		}
	}
}

// TestRunRoundLeasesSlab: the round's encoding slab comes from the free
// list and goes back to it on every return path (ARCHITECTURE.md, "Round
// scratch"), on both substrates at 1 chunk and 8. A second round of the
// same shape runs in the first's backing array, and since EncodeInto
// writes every word of a row, a slab left full of garbage still gives the
// plaintext-oracle sum; a round whose encoding fails (a NaN update) hands
// its slab back too. The list's own bound is transport's to test.
func TestRunRoundLeasesSlab(t *testing.T) {
	const n, dim = 12, 160
	codec := testCodec(dim, n)
	updates := randomUpdates(n, dim, 0.9)
	nan := maps.Clone(updates)
	nan[5] = slices.Clone(nan[5])
	nan[5][17] = math.NaN()
	drops := []uint64{3, 7}
	cfg := RoundConfig{Round: 1, Codec: codec, Threshold: 8, Seed: prg.NewSeed([]byte("lease"))}
	want, _ := encodedSum(t, codec, cfg.Seed, updates, drops)
	words := n * codec.PaddedDim()

	// A list of its own: slabs earlier tests handed back could fill the
	// shared one, which then drops what this test's rounds release.
	defer func(orig *transport.FreeList[uint64]) { slabs = orig }(slabs)
	slabs = transport.NewFreeList[uint64](2<<20, 2<<20)

	for _, proto := range []Protocol{ProtocolSecAgg, ProtocolLightSecAgg} {
		for _, chunks := range []int{1, 8} {
			cfg.Protocol, cfg.Chunks = proto, chunks
			if _, err := runRoundRing(cfg, updates, drops, rand.Reader); err != nil {
				t.Fatalf("%v, %d chunk(s): %v", proto, chunks, err)
			}
			// A slab the round used is not all zero words; a new one is.
			slab := slabs.Lease(words)
			if !slices.ContainsFunc(slab, func(w uint64) bool { return w != 0 }) {
				t.Fatalf("%v, %d chunk(s): the round did not hand its slab back", proto, chunks)
			}
			for i := range slab {
				slab[i] = 0x5A5A5A5A5A5A5A5A ^ uint64(i)
			}
			slabs.Release(slab)

			p, err := runRoundRing(cfg, updates, drops, rand.Reader)
			if err != nil {
				t.Fatalf("%v, %d chunk(s), second round: %v", proto, chunks, err)
			}
			// Last in, first out: a round that made its own slab would hand
			// that one back on top of the first's.
			if again := slabs.Lease(words); &again[0] != &slab[0] {
				t.Fatalf("%v, %d chunk(s): the second round did not run in the first round's slab", proto, chunks)
			}
			slabs.Release(slab)
			for i, w := range want.Data {
				if p.Sum.Data[i] != w {
					t.Fatalf("%v, %d chunk(s): on a garbage-filled slab coordinate %d is %d, want %d", proto, chunks, i, p.Sum.Data[i], w)
				}
			}

			if _, err := runRoundRing(cfg, nan, drops, rand.Reader); err == nil {
				t.Fatalf("%v, %d chunk(s): a NaN update encoded", proto, chunks)
			}
			if again := slabs.Lease(words); &again[0] != &slab[0] {
				t.Fatalf("%v, %d chunk(s): the failed round did not hand its slab back", proto, chunks)
			}
			slabs.Release(slab)
		}
	}

	// Concurrent rounds of one shape each lease their own slab: every sum
	// is exact.
	cfg.Protocol, cfg.Chunks = ProtocolSecAgg, 2
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := runRoundRing(cfg, updates, drops, rand.Reader)
			if err != nil {
				t.Error(err)
				return
			}
			if !slices.Equal(p.Sum.Data, want.Data) {
				t.Error("a concurrent round's sum differs from the plaintext oracle")
			}
		}()
	}
	wg.Wait()
}

// countingGraph counts the Neighbors calls made into the graph it wraps.
type countingGraph struct {
	secagg.Graph
	calls atomic.Int64
}

func (g *countingGraph) Neighbors(id uint64) []uint64 {
	g.calls.Add(1)
	return g.Graph.Neighbors(id)
}

// TestChunkedRoundWalksGraphOnce: the round validates its SecAgg+ config
// once, at the longest chunk, and every chunk's copy shares the neighbour
// memo that built, so an 8-chunk round asks the graph for each client's
// neighbours once — as a 1-chunk round does — not once per chunk.
func TestChunkedRoundWalksGraphOnce(t *testing.T) {
	const n, dim = 40, 256
	var g *countingGraph
	defer func(orig func(secagg.Config, int) (secagg.Config, error)) { newPlusConfig = orig }(newPlusConfig)
	newPlusConfig = func(base secagg.Config, degree int) (secagg.Config, error) {
		cfg, err := secaggplus.NewConfig(base, degree)
		g = &countingGraph{Graph: cfg.Graph}
		cfg.Graph = g
		return cfg, err
	}
	codec := testCodec(dim, n)
	updates := randomUpdates(n, dim, 0.9)
	for _, chunks := range []int{1, 8} {
		cfg := RoundConfig{Round: 1, Protocol: ProtocolSecAggPlus, Codec: codec, Threshold: 24, Chunks: chunks,
			Seed: prg.NewSeed([]byte("graph-once")), Sessions: NewSessionPool(1)}
		if _, err := runRoundRing(cfg, updates, []uint64{3}, rand.Reader); err != nil {
			t.Fatalf("%d chunk(s): %v", chunks, err)
		}
		if got := g.calls.Load(); got != n {
			t.Fatalf("%d chunk(s): the round asked the graph for neighbours %d times, want %d (once per client)", chunks, got, n)
		}
	}
}

// heldScratch counts the client sessions of rs — a *secagg.RoundSessions or
// a *lightsecagg.RoundSessions — that hold scratch: a SecAgg buffer or a
// LightSecAgg random slab. The fields are the substrates' own, read by
// reflection rather than exported for a test.
func heldScratch(rs any) int {
	held := 0
	for it := reflect.ValueOf(rs).Elem().FieldByName("Client").MapRange(); it.Next(); {
		s := it.Value().Elem()
		f := s.FieldByName("buf")
		if !f.IsValid() {
			f = s.FieldByName("scratch").FieldByName("words")
		}
		if f.Cap() > 0 {
			held++
		}
	}
	return held
}

// TestRunRoundReleasesSessionScratch: a round hands its sessions' client
// scratch back to the substrates' free lists on every return path
// (ARCHITECTURE.md, "Round scratch"), on both substrates at 1 chunk and 8
// with Sessions: NewSessionPool(1). Once the round returns no client
// session of it holds scratch — after a round that succeeded and after one
// that failed once its sessions existed (three clients gone at unmasking
// leave 7 responses at threshold 8). A second round of the same shape runs
// in what the first handed back — stale, and poisoned under -race — and
// still gives the plaintext-oracle sum, and the first round's sum, read
// after the second ran, is unchanged. The substrates' own
// TestRoundSessionsReleaseScratch pins that Release puts the scratch on
// their lists, last in, first out. Concurrent rounds on both substrates
// share those lists and every sum stays exact.
func TestRunRoundReleasesSessionScratch(t *testing.T) {
	const n, dim = 12, 160
	codec := testCodec(dim, n)
	updates := randomUpdates(n, dim, 0.9)
	drops := []uint64{3, 7}
	cfg := RoundConfig{Round: 1, Codec: codec, Threshold: 8, Seed: prg.NewSeed([]byte("release"))}
	want, _ := encodedSum(t, codec, cfg.Seed, updates, drops)

	var mu sync.Mutex
	var built []any // the round's sessions, read by run after the round
	keep := func(rs any) {
		mu.Lock()
		built = append(built, rs)
		mu.Unlock()
	}
	defer func(sa func([]uint64, io.Reader) (*secagg.RoundSessions, error),
		lsa func([]uint64, io.Reader) (*lightsecagg.RoundSessions, error)) {
		newSecAggSessions, newLightSecAggSessions = sa, lsa
	}(newSecAggSessions, newLightSecAggSessions)
	newSecAggSessions = func(ids []uint64, rand io.Reader) (*secagg.RoundSessions, error) {
		rs, err := secagg.NewRoundSessions(ids, rand)
		keep(rs)
		return rs, err
	}
	newLightSecAggSessions = func(ids []uint64, rand io.Reader) (*lightsecagg.RoundSessions, error) {
		rs, err := lightsecagg.NewRoundSessions(ids, rand)
		keep(rs)
		return rs, err
	}
	run := func(cfg RoundConfig) (*roundPartial, error) {
		t.Helper()
		built = built[:0]
		cfg.Sessions = NewSessionPool(1)
		p, err := runRoundRing(cfg, updates, drops, rand.Reader)
		if len(built) != 1 {
			t.Fatalf("%v, %d chunk(s): the round built %d session sets, want 1", cfg.Protocol, cfg.Chunks, len(built))
		}
		if held := heldScratch(built[0]); held != 0 {
			t.Fatalf("%v, %d chunk(s): %d client sessions kept their scratch after the round", cfg.Protocol, cfg.Chunks, held)
		}
		return p, err
	}
	for _, proto := range []Protocol{ProtocolSecAgg, ProtocolLightSecAgg} {
		for _, chunks := range []int{1, 8} {
			cfg.Protocol, cfg.Chunks, cfg.DropSchedule = proto, chunks, nil
			first, err := run(cfg)
			if err != nil {
				t.Fatalf("%v, %d chunk(s): %v", proto, chunks, err)
			}
			second, err := run(cfg)
			if err != nil {
				t.Fatalf("%v, %d chunk(s), second round: %v", proto, chunks, err)
			}
			// The first round's sum is read after the second round ran.
			for i, p := range []*roundPartial{second, first} {
				if !slices.Equal(p.Sum.Data, want.Data) {
					t.Fatalf("%v, %d chunk(s): round %d's sum differs from the plaintext oracle", proto, chunks, 2-i)
				}
			}

			cfg.DropSchedule = secagg.DropSchedule{10: secagg.StageUnmasking, 11: secagg.StageUnmasking, 12: secagg.StageUnmasking}
			if _, err := run(cfg); err == nil {
				t.Fatalf("%v, %d chunk(s): a round with 7 responses at threshold 8 succeeded", proto, chunks)
			}
		}
	}

	// Concurrent rounds on both substrates lease and hand back through the
	// shared lists at once: every sum is exact.
	var wg sync.WaitGroup
	for i := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := cfg
			c.Protocol, c.Chunks, c.DropSchedule, c.Sessions = []Protocol{ProtocolSecAgg, ProtocolLightSecAgg}[i%2], 2, nil, NewSessionPool(1)
			p, err := runRoundRing(c, updates, drops, rand.Reader)
			if err != nil {
				t.Error(err)
				return
			}
			if !slices.Equal(p.Sum.Data, want.Data) {
				t.Errorf("a concurrent %v round's sum differs from the plaintext oracle", c.Protocol)
			}
		}()
	}
	wg.Wait()
}
