package core

import (
	"crypto/rand"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/prg"
	"repro/internal/rng"
	"repro/internal/secagg"
	"repro/internal/secaggplus"
	"repro/internal/skellam"
	"repro/internal/xnoise"
)

func testCodec(dim, n int) skellam.Params {
	scale, err := skellam.ChooseScale(dim, 1.0, 20, n, 0.2, 3)
	if err != nil {
		panic(err)
	}
	return skellam.Params{
		Dim: dim, Bits: 20, Clip: 1.0, Scale: scale, Beta: math.Exp(-0.5),
		K: 3, NumClients: n, RotationSeed: prg.NewSeed([]byte("core-rot")),
	}
}

func randomUpdates(n, dim int, norm float64) map[uint64][]float64 {
	s := prg.NewStream(prg.NewSeed([]byte("core-updates")))
	out := make(map[uint64][]float64, n)
	for i := 1; i <= n; i++ {
		x := make([]float64, dim)
		rng.GaussianVector(s, 1, x)
		var n2 float64
		for _, v := range x {
			n2 += v * v
		}
		f := norm / math.Sqrt(n2)
		for j := range x {
			x[j] *= f
		}
		out[uint64(i)] = x
	}
	return out
}

func sumUpdates(updates map[uint64][]float64, skip map[uint64]bool, dim int) []float64 {
	out := make([]float64, dim)
	for id, u := range updates {
		if skip[id] {
			continue
		}
		for i, v := range u {
			out[i] += v
		}
	}
	return out
}

func l2(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

func TestRunRoundPlainNoNoise(t *testing.T) {
	const n, dim = 5, 50
	cfg := RoundConfig{
		Round: 1, Protocol: ProtocolSecAgg, Codec: testCodec(dim, n),
		Threshold: 3, Chunks: 1, Seed: prg.NewSeed([]byte("r1")),
	}
	updates := randomUpdates(n, dim, 0.8)
	res, err := RunRound(cfg, updates, nil, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	want := sumUpdates(updates, nil, dim)
	diff := make([]float64, dim)
	for i := range diff {
		diff[i] = res.Sum[i] - want[i]
	}
	if l2(diff) > 0.1 {
		t.Fatalf("plain round decode error %v", l2(diff))
	}
}

func TestRunRoundChunkingInvariance(t *testing.T) {
	// Without noise, the aggregate must be identical for every chunk
	// count (chunking only re-partitions the ring vector).
	const n, dim = 4, 64
	updates := randomUpdates(n, dim, 0.7)
	var ref []float64
	for _, m := range []int{1, 2, 3, 5, 8} {
		cfg := RoundConfig{
			Round: 2, Protocol: ProtocolSecAgg, Codec: testCodec(dim, n),
			Threshold: 3, Chunks: m, Seed: prg.NewSeed([]byte("r2")),
		}
		res, err := RunRound(cfg, updates, nil, rand.Reader)
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		if res.Chunks != m {
			t.Fatalf("m=%d: executed %d chunks", m, res.Chunks)
		}
		if ref == nil {
			ref = res.Sum
			continue
		}
		for i := range ref {
			if ref[i] != res.Sum[i] {
				t.Fatalf("m=%d: chunked aggregate differs at %d", m, i)
			}
		}
	}
}

// TestRunRoundKeptNoiseNotDerivableFromConfig: the XNoise a survivor keeps
// in the sum — the noise the paper's add-then-remove keeps from the server
// — comes from the round's randomness, not from its config. One
// RoundConfig, one set of updates and drops, run with two independent
// readers, decodes to two different sums; were the seeds derived from
// RoundConfig.Seed, anyone holding the config could subtract the noise.
func TestRunRoundKeptNoiseNotDerivableFromConfig(t *testing.T) {
	const n, dim = 5, 64
	cfg := RoundConfig{
		Round: 4, Protocol: ProtocolSecAgg, Codec: testCodec(dim, n),
		Threshold: 3, Chunks: 2, Tolerance: 2, TargetMu: 60,
		Seed: prg.NewSeed([]byte("kept-noise")),
	}
	updates := randomUpdates(n, dim, 0.5)
	var sums [2][]float64
	for i := range sums {
		res, err := RunRound(cfg, updates, []uint64{2}, prg.NewStream(prg.NewSeed([]byte("kept-noise-rand"), []byte{byte(i)})))
		if err != nil {
			t.Fatal(err)
		}
		sums[i] = res.Sum
	}
	for i := range sums[0] {
		if sums[0][i] != sums[1][i] {
			return
		}
	}
	t.Fatal("two independent readers decoded the same noisy sum: the kept noise is a function of the config")
}

func TestRunRoundXNoiseVariance(t *testing.T) {
	// Pipelined XNoise round: residual noise ≈ TargetMu per coordinate,
	// with and without dropout.
	const n = 5
	const dim = 7000 // padded to 8192
	for _, drops := range [][]uint64{nil, {2}} {
		codec := testCodec(dim, n)
		cfg := RoundConfig{
			Round: 3, Protocol: ProtocolSecAgg, Codec: codec,
			Threshold: 3, Chunks: 3, Tolerance: 2, TargetMu: 60,
			Seed: prg.NewSeed([]byte("r3")),
		}
		updates := randomUpdates(n, dim, 0.5)
		res, err := RunRound(cfg, updates, drops, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		skip := map[uint64]bool{}
		for _, id := range drops {
			skip[id] = true
		}
		want := sumUpdates(updates, skip, dim)
		// Residual (model units) → grid units via scale; variance ≈ μ.
		var sum, sumSq float64
		for i := range want {
			g := (res.Sum[i] - want[i]) * codec.Scale
			sum += g
			sumSq += g * g
		}
		mean := sum / float64(dim)
		variance := sumSq/float64(dim) - mean*mean
		// Quantization adds ~1/4 + small rounding bias on top of μ.
		if math.Abs(variance-cfg.TargetMu)/cfg.TargetMu > 0.15 {
			t.Errorf("drops=%v: residual variance %v, want ≈%v", drops, variance, cfg.TargetMu)
		}
		if len(res.Survivors)+len(res.Dropped) != n {
			t.Errorf("partition broken: %v / %v", res.Survivors, res.Dropped)
		}
	}
}

// TestRunRoundSecAggPlus: RunRound on the SecAgg+ substrate, at an n whose
// recommended degree leaves the mask graph sparse.
func TestRunRoundSecAggPlus(t *testing.T) {
	const n, dim = 32, 40
	if d := secaggplus.RecommendedDegree(n); d >= n-1 {
		t.Fatalf("degree %d at n = %d is the complete graph", d, n)
	}
	cfg := RoundConfig{
		Round: 4, Protocol: ProtocolSecAggPlus,
		Codec: testCodec(dim, n), Threshold: 3, Chunks: 2,
		Seed: prg.NewSeed([]byte("r4")),
	}
	updates := randomUpdates(n, dim, 0.6)
	res, err := RunRound(cfg, updates, []uint64{5}, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	want := sumUpdates(updates, map[uint64]bool{5: true}, dim)
	diff := make([]float64, dim)
	for i := range diff {
		diff[i] = res.Sum[i] - want[i]
	}
	if l2(diff) > 0.1 {
		t.Fatalf("SecAgg+ round decode error %v", l2(diff))
	}
}

func TestRunRoundValidation(t *testing.T) {
	const n, dim = 4, 16
	base := RoundConfig{
		Round: 5, Codec: testCodec(dim, n), Threshold: 3, Chunks: 1,
		Seed: prg.NewSeed([]byte("r5")),
	}
	updates := randomUpdates(n, dim, 0.5)
	if _, err := RunRound(base, map[uint64][]float64{1: updates[1]}, nil, rand.Reader); err == nil {
		t.Error("single client should error")
	}
	bad := base
	bad.Chunks = 0
	if _, err := RunRound(bad, updates, nil, rand.Reader); err == nil {
		t.Error("chunks=0 should error")
	}
	if _, err := RunRound(base, updates, []uint64{99}, rand.Reader); err == nil {
		t.Error("unknown dropped id should error")
	}
	tol := base
	tol.Tolerance = 1
	tol.TargetMu = 10
	if _, err := RunRound(tol, updates, []uint64{1, 2}, rand.Reader); err == nil {
		t.Error("dropouts beyond tolerance should error")
	}
}

// TestRoundConfigRejectsSubRoundOverflow: a chunk count whose sub-round
// ids would run into the next round's is refused, and within the bound
// the last chunk of round r and the first of round r+1 stay apart — on a
// LightSecAgg session a driver keeps across rounds that id is all that
// separates their envelope ADs.
func TestRoundConfigRejectsSubRoundOverflow(t *testing.T) {
	cfg := RoundConfig{
		Round: 5, Codec: testCodec(16, 4), Threshold: 3, Chunks: maxChunks,
		Seed: prg.NewSeed([]byte("r5")),
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("chunks = maxChunks rejected: %v", err)
	}
	cfg.Chunks = maxChunks + 1
	if err := cfg.Validate(); err == nil {
		t.Fatalf("chunks = %d accepted: chunk %d of round r would share round r+1's chunk 0 id", cfg.Chunks, maxChunks)
	}
	for _, r := range []uint64{0, 5, 1 << 40} {
		if last, first := subRound(r, maxChunks-1), subRound(r+1, 0); last >= first {
			t.Fatalf("sub-round ids of (%d, %d) and (%d, 0) are %d and %d, want ascending", r, maxChunks-1, r+1, last, first)
		}
	}
}

// TestRoundConfigRejectsTargetWithoutTolerance: Tolerance 0 adds no noise,
// so a noise target set without one is a misconfiguration, refused before
// the round runs instead of releasing the sum un-noised.
func TestRoundConfigRejectsTargetWithoutTolerance(t *testing.T) {
	cfg := RoundConfig{Codec: testCodec(16, 4), Threshold: 3, Chunks: 1, TargetMu: 10}
	if err := cfg.Validate(); err == nil {
		t.Fatal("TargetMu 10 with Tolerance 0 accepted")
	}
	if _, err := RunRound(cfg, randomUpdates(4, 16, 0.5), nil, rand.Reader); err == nil {
		t.Fatal("RunRound ran a noise target with no tolerance")
	}
	cfg.TargetMu = 0
	if err := cfg.Validate(); err != nil {
		t.Fatalf("plain aggregation rejected: %v", err)
	}
}

// TestRunRoundRefusesUnknownProtocol: a protocol value outside the four
// substrates is refused before the round runs, rather than running classic
// SecAgg and reporting auto, and prints as the number it is.
func TestRunRoundRefusesUnknownProtocol(t *testing.T) {
	updates := randomUpdates(4, 16, 0.5)
	for _, p := range []Protocol{ProtocolLightSecAgg + 1, 9, -1} {
		cfg := RoundConfig{Protocol: p, Codec: testCodec(16, 4), Threshold: 3, Chunks: 1}
		if res, err := RunRound(cfg, updates, nil, rand.Reader); err == nil {
			t.Fatalf("protocol %d ran, reporting %v", int(p), res.Protocol)
		}
	}
	if got := Protocol(9).String(); got != "protocol(9)" {
		t.Fatalf("Protocol(9).String() = %q, want protocol(9)", got)
	}
}

// TestRunRoundRefusesUnknownDropStage: a drop-schedule entry must name a
// stage. NoDrop (a WireClientConfig.DropBefore value) or a stage past
// StageNoiseRemoval would count the client as dropped, or late-dropped,
// while its update is in the sum; the round refuses them, naming the
// client.
func TestRunRoundRefusesUnknownDropStage(t *testing.T) {
	updates := randomUpdates(6, 16, 0.5)
	for _, st := range []secagg.Stage{NoDrop, secagg.StageNoiseRemoval + 1, 42} {
		cfg := RoundConfig{Protocol: ProtocolSecAgg, Codec: testCodec(16, 6), Threshold: 3, Chunks: 1,
			DropSchedule: secagg.DropSchedule{3: st}}
		res, err := RunRound(cfg, updates, nil, rand.Reader)
		if err == nil {
			t.Fatalf("stage %v ran: survivors %v, dropped %v, late %v", st, res.Survivors, res.Dropped, res.LateDropped)
		}
		if !strings.Contains(err.Error(), "client 3") {
			t.Fatalf("stage %v: %v does not name client 3", st, err)
		}
	}
}

func TestWireRoundOverMemoryTransport(t *testing.T) { testWireRound(t, "memory") }

func TestWireRoundOverTCP(t *testing.T) { testWireRound(t, "tcp") }

func testWireRound(t *testing.T, link string) {
	rig := newWireRig(t, link, secagg.Config{
		ClientIDs: []uint64{1, 2, 3, 4, 5}, Threshold: 3, Bits: 20, Dim: 32,
		XNoise: &xnoise.Plan{NumClients: 5, DropoutTolerance: 1, Threshold: 3, TargetVariance: 30},
	})
	rig.stageDeadline = 1500 * time.Millisecond
	_, res := rig.round(11, secagg.DropSchedule{4: secagg.StageMaskedInput})
	if len(res.Dropped) != 1 || res.Dropped[0] != 4 {
		t.Fatalf("dropped = %v, want [4]", res.Dropped)
	}
	// |D| = 1 = T, so nothing is removed and the noise sits at the target.
	rig.checkMean(res, []uint64{1, 2, 3, 5})
}
