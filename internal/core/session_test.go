package core

import (
	"crypto/rand"
	"math"
	"strings"
	"testing"

	"repro/internal/dh"
	"repro/internal/prg"
	"repro/internal/secagg"
)

// TestRunRoundAmortizesKeyAgreementAcrossChunks: with a session pool, an
// m-chunk round performs the X25519 work of roughly one chunk (n·k
// agreements) instead of m·n·k, and the aggregate is bit-identical to the
// per-chunk-keys path (the same XNoise, drawn first from readers on one
// seed; masks cancel in both).
func TestRunRoundAmortizesKeyAgreementAcrossChunks(t *testing.T) {
	const n, dim, chunks = 8, 256, 4
	updates := randomUpdates(n, dim, 0.5)
	mkCfg := func() RoundConfig {
		return RoundConfig{
			Round: 21, Protocol: ProtocolSecAgg, Codec: testCodec(dim, n),
			Threshold: 4, Chunks: chunks, Tolerance: 2, TargetMu: 40,
			Seed: prg.NewSeed([]byte("amortize")),
		}
	}

	a0 := dh.AgreeCount()
	plain, err := RunRound(mkCfg(), updates, []uint64{3}, prg.NewStream(prg.NewSeed([]byte("amortize-rand"))))
	if err != nil {
		t.Fatal(err)
	}
	perChunkAgrees := dh.AgreeCount() - a0

	cfg := mkCfg()
	cfg.Sessions = NewSessionPool(1)
	a0 = dh.AgreeCount()
	amortized, err := RunRound(cfg, updates, []uint64{3}, prg.NewStream(prg.NewSeed([]byte("amortize-rand"))))
	if err != nil {
		t.Fatal(err)
	}
	amortizedAgrees := dh.AgreeCount() - a0

	for i := range plain.Sum {
		if plain.Sum[i] != amortized.Sum[i] {
			t.Fatalf("sum[%d]: per-chunk %v != amortized %v", i, plain.Sum[i], amortized.Sum[i])
		}
	}
	// The per-chunk path pays ~m× the agreements; the amortized path pays
	// one chunk's worth. Allow slack for the worker pool's racy duplicate
	// cache fills, which are bounded but nonzero.
	if amortizedAgrees*2 > perChunkAgrees {
		t.Fatalf("amortized path did %d agreements vs %d per-chunk — no amortization",
			amortizedAgrees, perChunkAgrees)
	}
	if want := perChunkAgrees / chunks * 2; amortizedAgrees > want {
		t.Fatalf("amortized path did %d agreements, want ≤ %d (≈ one chunk's worth)",
			amortizedAgrees, want)
	}
}

// TestSessionPoolAcrossRounds: a pool's key generation lives one RunRound
// call. A second round on the same pool generates 2n key pairs and agrees
// every pair afresh, as does a round after a dropout; only the re-key
// handshake resumes a generation across rounds, so a pool asking for a
// longer lifetime is refused and the error names the handshake.
func TestSessionPoolAcrossRounds(t *testing.T) {
	const n, dim = 6, 128
	updates := randomUpdates(n, dim, 0.5)
	cfg := RoundConfig{
		Protocol: ProtocolSecAgg, Codec: testCodec(dim, n),
		Threshold: 3, Chunks: 2, Seed: prg.NewSeed([]byte("pool")),
		Sessions: NewSessionPool(1),
	}

	check := func(res *RoundResult, err error) *RoundResult {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		want := sumUpdates(updates, nil, dim)
		diff := make([]float64, dim)
		for i := range diff {
			diff[i] = res.Sum[i] - want[i]
		}
		if l2(diff) > 0.1 {
			t.Fatalf("round decode error %v", l2(diff))
		}
		return res
	}
	// fresh runs round r on cfg's pool and checks it generated and agreed
	// a whole key generation: 2n key pairs, and a channel and a mask key
	// per ordered pair.
	fresh := func(r uint64, drops []uint64) {
		t.Helper()
		cfg.Round = r
		a0, g0 := dh.AgreeCount(), dh.GenerateCount()
		res, err := RunRound(cfg, updates, drops, rand.Reader)
		if drops == nil {
			check(res, err)
		} else if err != nil {
			t.Fatal(err)
		}
		if d := dh.GenerateCount() - g0; d != uint64(2*n) {
			t.Fatalf("round %d generated %d key pairs, want %d (fresh sessions)", r, d, 2*n)
		}
		if d := dh.AgreeCount() - a0; d < uint64(2*n*(n-1)) {
			t.Fatalf("round %d performed %d agreements, want ≥ %d (agreed afresh)", r, d, 2*n*(n-1))
		}
	}
	fresh(1, nil)
	fresh(2, nil)
	fresh(3, []uint64{2})
	fresh(4, nil)

	cfg.Sessions = NewSessionPool(2)
	if _, err := RunRound(cfg, updates, nil, rand.Reader); err == nil || !strings.Contains(err.Error(), "handshake") {
		t.Fatalf("a two-round pool: err = %v, want a refusal naming the handshake", err)
	}
}

// TestRunRoundPerStageDropSchedule: stage-2 (before sharing) and stage-4
// (before unmasking) dropouts flow through RoundConfig.DropSchedule — the
// early dropper is excluded from the aggregate, the late dropper's update
// and noise are in it, and the partition reports both correctly.
func TestRunRoundPerStageDropSchedule(t *testing.T) {
	const n, dim = 6, 7000
	codec := testCodec(dim, n)
	cfg := RoundConfig{
		Round: 31, Protocol: ProtocolSecAgg, Codec: codec,
		Threshold: 3, Chunks: 2, Tolerance: 2, TargetMu: 60,
		Seed: prg.NewSeed([]byte("stages")),
		DropSchedule: secagg.DropSchedule{
			2: secagg.StageShareKeys, // drops before sharing → excluded
			5: secagg.StageUnmasking, // drops after upload → included
		},
	}
	updates := randomUpdates(n, dim, 0.5)
	res, err := RunRound(cfg, updates, nil, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Dropped) != 1 || res.Dropped[0] != 2 {
		t.Fatalf("dropped = %v, want [2]", res.Dropped)
	}
	if len(res.LateDropped) != 1 || res.LateDropped[0] != 5 {
		t.Fatalf("late dropped = %v, want [5]", res.LateDropped)
	}
	if len(res.Survivors) != n-1 {
		t.Fatalf("survivors = %v, want all but client 2", res.Survivors)
	}
	// Client 5's update is in the sum, client 2's is not, and the XNoise
	// residual sits at the target: numDropped = 1 (only pre-mask drops
	// dent the noise), so the removal accounts for exactly that.
	want := sumUpdates(updates, map[uint64]bool{2: true}, dim)
	var sum, sumSq float64
	for i := range want {
		g := (res.Sum[i] - want[i]) * codec.Scale
		sum += g
		sumSq += g * g
	}
	mean := sum / float64(dim)
	variance := sumSq/float64(dim) - mean*mean
	if math.Abs(variance-cfg.TargetMu)/cfg.TargetMu > 0.15 {
		t.Errorf("residual variance %v, want ≈%v", variance, cfg.TargetMu)
	}
}

// TestWireRoundSessionResume: two consecutive wire rounds share sessions;
// the second sets Resume on both ends, skips the advertise stage, and
// performs zero X25519 agreements while still producing the right
// aggregate.
func TestWireRoundSessionResume(t *testing.T) {
	cfg := secagg.Config{ClientIDs: []uint64{1, 2, 3, 4}, Threshold: 3, Bits: 20, Dim: 32}
	first := newWireRig(t, "memory", cfg)
	first.sessions()
	_, res := first.round(41, nil)
	first.checkSum(res, cfg.ClientIDs)

	// The resumed round runs on a link of its own, so nothing of the first
	// round's collection can reach it.
	second := newWireRig(t, "memory", cfg)
	second.serverSess, second.clientSess = first.serverSess, first.clientSess
	second.hs = Handshake{Resume: true, Ratchet: 1}
	a0 := dh.AgreeCount()
	_, res = second.round(42, nil)
	second.checkSum(res, cfg.ClientIDs)
	if d := dh.AgreeCount() - a0; d != 0 {
		t.Fatalf("resumed wire round performed %d agreements, want 0", d)
	}
}

// TestResolveProtocolAuto pins the auto substrate switch: classic SecAgg
// below SecAggPlusAutoMin sampled clients, SecAgg+ at or above.
func TestResolveProtocolAuto(t *testing.T) {
	if got := ResolveProtocol(ProtocolAuto, SecAggPlusAutoMin-1); got != ProtocolSecAgg {
		t.Fatalf("auto at n=%d resolved to %v", SecAggPlusAutoMin-1, got)
	}
	if got := ResolveProtocol(ProtocolAuto, SecAggPlusAutoMin); got != ProtocolSecAggPlus {
		t.Fatalf("auto at n=%d resolved to %v", SecAggPlusAutoMin, got)
	}
	if got := ResolveProtocol(ProtocolSecAgg, 1000); got != ProtocolSecAgg {
		t.Fatalf("pinned secagg resolved to %v", got)
	}
	if got := ResolveProtocol(ProtocolSecAggPlus, 4); got != ProtocolSecAggPlus {
		t.Fatalf("pinned secagg+ resolved to %v", got)
	}
	// The zero-value RoundConfig scales automatically and reports the
	// substrate it used.
	const n, dim = 5, 40
	updates := randomUpdates(n, dim, 0.5)
	res, err := RunRound(RoundConfig{
		Round: 51, Codec: testCodec(dim, n), Threshold: 3, Chunks: 1,
		Seed: prg.NewSeed([]byte("auto")),
	}, updates, nil, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if res.Protocol != ProtocolSecAgg {
		t.Fatalf("auto round at n=%d used %v", n, res.Protocol)
	}
}
