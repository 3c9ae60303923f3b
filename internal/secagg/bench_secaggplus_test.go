package secagg_test

import (
	"crypto/rand"
	"testing"

	"repro/internal/ring"
	"repro/internal/secagg"
	"repro/internal/secaggplus"
	"repro/internal/xnoise"
)

// SecAgg+ variant of the 64-client round benchmarks (external test
// package: secaggplus imports secagg, so the sparse-graph bench cannot
// live next to the internal ones). The complete graph pays n·(n−1)/2
// X25519 pair agreements twice over (client masking and server
// unmasking); the circulant k-regular graph cuts that to n·k/2, which at
// n=64 is the dominant fixed cost of the QuickScale round per the PR 1
// profile. CHANGES.md (PR 1) records the measured delta.
func benchRoundGraph(b *testing.B, n, dim, degree, dropped int) {
	b.Helper()
	tol := n / 4
	plan := &xnoise.Plan{
		NumClients: n, DropoutTolerance: tol,
		Threshold: n - tol, TargetVariance: 100,
	}
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(i + 1)
	}
	cfg := secagg.Config{
		Round: 1, ClientIDs: ids, Threshold: n - tol, Bits: 20, Dim: dim,
		XNoise: plan,
	}
	if degree > 0 {
		var err error
		cfg, err = secaggplus.NewConfig(cfg, degree)
		if err != nil {
			b.Fatal(err)
		}
	}
	inputs := make(map[uint64]ring.Vector, n)
	for _, id := range ids {
		inputs[id] = ring.NewVector(20, dim)
	}
	// Spread dropouts evenly around the ring: a circulant neighborhood
	// only tolerates ~(k+1−t) dead neighbors, so clustering all drops in
	// one arc (fine under the complete graph, where position is
	// irrelevant) would starve one neighborhood's reconstruction cohort
	// rather than exercise the protocol's steady state.
	drops := secagg.DropSchedule{}
	for i := 0; i < dropped; i++ {
		drops[ids[i*n/dropped]] = secagg.StageMaskedInput
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := secagg.Run(cfg, inputs, nil, drops, rand.Reader); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRound64QuickScaleSecAggPlus mirrors BenchmarkRound64QuickScale
// on the recommended O(log n) circulant graph (k = 18 at n = 64): the
// X25519 key-agreement count drops from O(n²) to O(n·k).
func BenchmarkRound64QuickScaleSecAggPlus(b *testing.B) {
	benchRoundGraph(b, 64, 4096, secaggplus.RecommendedDegree(64), 8)
}

// BenchmarkRound64LargeModelSecAggPlus is the large-model variant, where
// per-element compute dominates and the sparse graph's win shrinks to the
// share-handling and mask-expansion terms.
func BenchmarkRound64LargeModelSecAggPlus(b *testing.B) {
	benchRoundGraph(b, 64, 65536, secaggplus.RecommendedDegree(64), 8)
}

// BenchmarkRound64SecAggPlusSessionResumed measures the steady state of
// per-neighborhood session reuse on the circulant graph: every iteration
// is a full round (advertise skipped, zero X25519 agreements, masks forked
// at an advancing epoch) on sessions warmed by one priming round. Compare
// with BenchmarkRound64QuickScaleSecAggPlus, which pays the key agreements
// every round.
func BenchmarkRound64SecAggPlusSessionResumed(b *testing.B) {
	const n, dim = 64, 4096
	tol := n / 4
	plan := &xnoise.Plan{
		NumClients: n, DropoutTolerance: tol,
		Threshold: n - tol, TargetVariance: 100,
	}
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(i + 1)
	}
	cfg := secagg.Config{
		Round: 1, ClientIDs: ids, Threshold: n - tol, Bits: 20, Dim: dim,
		XNoise: plan,
	}
	cfg, err := secaggplus.NewConfig(cfg, secaggplus.RecommendedDegree(n))
	if err != nil {
		b.Fatal(err)
	}
	inputs := make(map[uint64]ring.Vector, n)
	for _, id := range ids {
		inputs[id] = ring.NewVector(20, dim)
	}
	sess, err := secagg.NewRoundSessions(ids, rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := secagg.RunWithSessions(cfg, inputs, nil, nil, rand.Reader, sess); err != nil {
		b.Fatal(err) // priming round: agreements + roster
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := cfg
		c.MaskEpoch = uint64(i + 1)
		if _, err := secagg.RunWithSessions(c, inputs, nil, nil, rand.Reader, sess); err != nil {
			b.Fatal(err)
		}
	}
}
