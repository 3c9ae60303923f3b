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

// TestRunRoundLightSecAggMatchesSecAgg: with XNoise disabled the round is
// an exact sum, so the LightSecAgg substrate must produce the identical
// decoded aggregate as classic SecAgg over the same encoded updates — the
// substrates are swappable behind one RunRound API.
func TestRunRoundLightSecAggMatchesSecAgg(t *testing.T) {
	const n, dim = 6, 96
	updates := randomUpdates(n, dim, 0.5)
	mkCfg := func(p Protocol) RoundConfig {
		return RoundConfig{
			Round: 31, Protocol: p, Codec: testCodec(dim, n),
			Threshold: 4, Chunks: 2, Seed: prg.NewSeed([]byte("lsa-match")),
		}
	}
	sa, err := RunRound(mkCfg(ProtocolSecAgg), updates, nil, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	lsa, err := RunRound(mkCfg(ProtocolLightSecAgg), updates, nil, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if lsa.Protocol != ProtocolLightSecAgg {
		t.Fatalf("protocol = %v, want lightsecagg", lsa.Protocol)
	}
	for i := range sa.Sum {
		if sa.Sum[i] != lsa.Sum[i] {
			t.Fatalf("sum[%d]: secagg %v != lightsecagg %v", i, sa.Sum[i], lsa.Sum[i])
		}
	}
}

// TestRunRoundLightSecAggXNoiseDropout: the XNoise add-then-remove wrap
// holds on the LightSecAgg substrate too — with dropouts before the
// masked upload and a late (post-upload) dropper, the residual noise
// lands on the enforced target and the survivor partition is reported
// like the secagg substrates report it.
func TestRunRoundLightSecAggXNoiseDropout(t *testing.T) {
	const n, dim, targetMu = 6, 7000, 60.0
	updates := randomUpdates(n, dim, 0.5)
	codec := testCodec(dim, n)
	res, err := RunRound(RoundConfig{
		Round: 32, Protocol: ProtocolLightSecAgg, Codec: codec,
		Threshold: 4, Chunks: 2, Tolerance: 2, TargetMu: targetMu,
		Seed:         prg.NewSeed([]byte("lsa-xnoise")),
		DropSchedule: secagg.DropSchedule{5: secagg.StageUnmasking},
	}, updates, []uint64{2}, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Dropped) != 1 || res.Dropped[0] != 2 {
		t.Fatalf("dropped = %v, want [2]", res.Dropped)
	}
	if len(res.LateDropped) != 1 || res.LateDropped[0] != 5 {
		t.Fatalf("late dropped = %v, want [5]", res.LateDropped)
	}
	want := sumUpdates(updates, map[uint64]bool{2: true}, dim)
	var sum, sumSq float64
	for i := range want {
		g := (res.Sum[i] - want[i]) * codec.Scale
		sum += g
		sumSq += g * g
	}
	mean := sum / float64(dim)
	variance := sumSq/float64(dim) - mean*mean
	if math.Abs(variance-targetMu)/targetMu > 0.15 {
		t.Errorf("residual variance %v, want ≈%v", variance, targetMu)
	}
}

// TestRunRoundLightSecAggSessionsAmortize: a session pool serves every
// chunk from one key generation (n instead of m·n X25519 key pairs), and
// that generation lives one round — the next round on the same pool
// generates n key pairs afresh, and a pool asking for two rounds is
// refused on this substrate too.
func TestRunRoundLightSecAggSessionsAmortize(t *testing.T) {
	const n, dim, chunks = 6, 128, 4
	updates := randomUpdates(n, dim, 0.5)
	mkCfg := func() RoundConfig {
		return RoundConfig{
			Round: 33, Protocol: ProtocolLightSecAgg, Codec: testCodec(dim, n),
			Threshold: 4, Chunks: chunks, Seed: prg.NewSeed([]byte("lsa-pool")),
		}
	}

	g0 := dh.GenerateCount()
	if _, err := RunRound(mkCfg(), updates, nil, rand.Reader); err != nil {
		t.Fatal(err)
	}
	perChunkGens := dh.GenerateCount() - g0
	if want := uint64(chunks * n); perChunkGens != want {
		t.Fatalf("session-less round generated %d key pairs, want %d (m·n)", perChunkGens, want)
	}

	pool := NewSessionPool(1)
	for round := uint64(33); round <= 34; round++ {
		cfg := mkCfg()
		cfg.Round, cfg.Sessions = round, pool
		g0 = dh.GenerateCount()
		if _, err := RunRound(cfg, updates, nil, rand.Reader); err != nil {
			t.Fatal(err)
		}
		if gens := dh.GenerateCount() - g0; gens != n {
			t.Fatalf("pooled round %d generated %d key pairs, want %d (one per client)", round, gens, n)
		}
	}

	cfg := mkCfg()
	cfg.Sessions = NewSessionPool(2)
	if _, err := RunRound(cfg, updates, nil, rand.Reader); err == nil || !strings.Contains(err.Error(), "handshake") {
		t.Fatalf("a two-round pool: err = %v, want a refusal naming the handshake", err)
	}
}

// TestRunRoundLightSecAggValidation: the substrate's feasibility
// constraints surface as configuration errors, not as protocol aborts.
func TestRunRoundLightSecAggValidation(t *testing.T) {
	const n, dim = 6, 64
	updates := randomUpdates(n, dim, 0.5)
	cfg := RoundConfig{
		Round: 34, Protocol: ProtocolLightSecAgg, Codec: testCodec(dim, n),
		Threshold: 3, Chunks: 1, Seed: prg.NewSeed([]byte("lsa-bad")),
	}
	// Threshold = n/2 leaves U − T = 0 coded data pieces.
	if _, err := RunRound(cfg, updates, nil, rand.Reader); err == nil {
		t.Fatal("expected error for Threshold ≤ n/2 on the lightsecagg substrate")
	}
}
