package secaggplus

import (
	"crypto/rand"
	"math"
	"testing"

	"repro/internal/ring"
	"repro/internal/secagg"
	"repro/internal/xnoise"
)

func ids(n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(i + 1)
	}
	return out
}

func TestCirculantGraphProperties(t *testing.T) {
	g, err := NewCirculantGraph(ids(20), 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids(20) {
		nbrs := g.Neighbors(id)
		if len(nbrs) != 6 {
			t.Fatalf("node %d degree %d, want 6", id, len(nbrs))
		}
		for _, v := range nbrs {
			if v == id {
				t.Fatalf("node %d is its own neighbor", id)
			}
			// Symmetry.
			found := false
			for _, back := range g.Neighbors(v) {
				if back == id {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("asymmetric edge %d→%d", id, v)
			}
		}
	}
}

func TestCirculantGraphConnected(t *testing.T) {
	g, err := NewCirculantGraph(ids(31), 4)
	if err != nil {
		t.Fatal(err)
	}
	visited := map[uint64]bool{1: true}
	frontier := []uint64{1}
	for len(frontier) > 0 {
		next := frontier[0]
		frontier = frontier[1:]
		for _, v := range g.Neighbors(next) {
			if !visited[v] {
				visited[v] = true
				frontier = append(frontier, v)
			}
		}
	}
	if len(visited) != 31 {
		t.Fatalf("graph not connected: reached %d of 31", len(visited))
	}
}

func TestCirculantGraphClamping(t *testing.T) {
	// Odd degree rounds up; degree ≥ n clamps to complete.
	g, err := NewCirculantGraph(ids(10), 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.Degree() != 4 {
		t.Errorf("odd degree should round to 4, got %d", g.Degree())
	}
	g2, err := NewCirculantGraph(ids(5), 100)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Degree() != 4 {
		t.Errorf("degree should clamp to n-1=4, got %d", g2.Degree())
	}
	if len(g2.Neighbors(3)) != 4 {
		t.Errorf("complete neighborhoods expected")
	}
}

func TestCirculantGraphErrors(t *testing.T) {
	if _, err := NewCirculantGraph(ids(1), 2); err == nil {
		t.Error("n=1 should error")
	}
	if _, err := NewCirculantGraph(ids(5), 1); err == nil {
		t.Error("degree 1 should error")
	}
	if _, err := NewCirculantGraph([]uint64{1, 1, 2}, 2); err == nil {
		t.Error("duplicate ids should error")
	}
	g, _ := NewCirculantGraph(ids(5), 2)
	if g.Neighbors(99) != nil {
		t.Error("unknown node should have no neighbors")
	}
}

func TestRecommendedDegreeGrowsLogarithmically(t *testing.T) {
	d100 := RecommendedDegree(100)
	d10000 := RecommendedDegree(10000)
	if d10000 <= d100 {
		t.Errorf("degree should grow with n: %d vs %d", d100, d10000)
	}
	// log₂(10000)/log₂(100) = 2, so roughly doubles, not ×100.
	if d10000 > 3*d100 {
		t.Errorf("degree growth not logarithmic: %d vs %d", d100, d10000)
	}
	if RecommendedDegree(2) != 2 {
		t.Errorf("tiny n should floor at 2")
	}
	if d := RecommendedDegree(16); d%2 != 0 {
		t.Errorf("degree should be even, got %d", d)
	}
}

func TestSecAggPlusRoundNoDropout(t *testing.T) {
	base := secagg.Config{
		Round: 3, ClientIDs: ids(12), Threshold: 5, Bits: 20, Dim: 32,
	}
	cfg, err := NewConfig(base, 6)
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	inputs := make(map[uint64]ring.Vector)
	want := ring.NewVector(cfg.Bits, cfg.Dim)
	for _, id := range cfg.ClientIDs {
		v := ring.NewVector(cfg.Bits, cfg.Dim)
		for j := range v.Data {
			v.Data[j] = (id*31 + uint64(j)) & v.Mask()
		}
		inputs[id] = v
		want.AddInPlace(v)
	}
	rr, err := secagg.RunWithSessions(cfg, inputs, nil, nil, rand.Reader, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := ring.Vector{Bits: cfg.Bits, Data: rr.Result.Sum}
	if !ring.Equal(got, want) {
		t.Fatal("SecAgg+ aggregate mismatch")
	}
}

func TestSecAggPlusRoundWithDropout(t *testing.T) {
	base := secagg.Config{
		Round: 3, ClientIDs: ids(12), Threshold: 4, Bits: 20, Dim: 32,
	}
	cfg, err := NewConfig(base, 6)
	if err != nil {
		t.Fatal(err)
	}
	inputs := make(map[uint64]ring.Vector)
	for _, id := range cfg.ClientIDs {
		v := ring.NewVector(cfg.Bits, cfg.Dim)
		for j := range v.Data {
			v.Data[j] = id & v.Mask()
		}
		inputs[id] = v
	}
	drops := secagg.DropSchedule{4: secagg.StageMaskedInput, 9: secagg.StageMaskedInput}
	rr, err := secagg.RunWithSessions(cfg, inputs, nil, drops, rand.Reader, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := ring.NewVector(cfg.Bits, cfg.Dim)
	for _, id := range cfg.ClientIDs {
		if id == 4 || id == 9 {
			continue
		}
		want.AddInPlace(inputs[id])
	}
	got := ring.Vector{Bits: cfg.Bits, Data: rr.Result.Sum}
	if !ring.Equal(got, want) {
		t.Fatal("SecAgg+ dropout aggregate mismatch")
	}
}

func TestSecAggPlusWithXNoise(t *testing.T) {
	// Dordis's generality claim: XNoise composes with SecAgg+ unchanged.
	n := 10
	plan := &xnoise.Plan{NumClients: n, DropoutTolerance: 3, Threshold: 5, TargetVariance: 80}
	base := secagg.Config{
		Round: 1, ClientIDs: ids(n), Threshold: 5, Bits: 20, Dim: 8192, XNoise: plan,
	}
	cfg, err := NewConfig(base, 8)
	if err != nil {
		t.Fatal(err)
	}
	inputs := make(map[uint64]ring.Vector)
	for _, id := range cfg.ClientIDs {
		inputs[id] = ring.NewVector(cfg.Bits, cfg.Dim)
	}
	drops := secagg.DropSchedule{2: secagg.StageMaskedInput}
	rr, err := secagg.RunWithSessions(cfg, inputs, nil, drops, rand.Reader, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Inputs are zero, so the sum is pure residual noise at σ²*.
	got := ring.Vector{Bits: cfg.Bits, Data: rr.Result.Sum}
	residual := got.Centered()
	var sum, sumSq float64
	for _, v := range residual {
		f := float64(v)
		sum += f
		sumSq += f * f
	}
	mean := sum / float64(len(residual))
	variance := sumSq/float64(len(residual)) - mean*mean
	if math.Abs(variance-plan.TargetVariance)/plan.TargetVariance > 0.1 {
		t.Errorf("residual variance %v, want ≈%v", variance, plan.TargetVariance)
	}
}

// TestNewConfigLowersThresholdToNeighborhood pins SecAgg+'s threshold
// rewrite at exact values: a base threshold above the neighbourhood size
// k+1 becomes ⌈2(k+1)/3⌉, one within it stays (at k+1 and below
// ⌈2(k+1)/3⌉ alike), and the XNoise plan's
// threshold follows the config's without the caller's plan moving. Degree
// 0 takes RecommendedDegree (16 at n = 32, 18 at n = 64).
func TestNewConfigLowersThresholdToNeighborhood(t *testing.T) {
	for _, tc := range []struct {
		n, degree, base, want int
	}{
		{8, 4, 6, 4},
		{8, 4, 5, 5},
		{32, 0, 20, 12},
		{32, 0, 17, 17},
		{64, 0, 48, 13},
		{64, 0, 19, 19},
		{64, 0, 10, 10},
		{100, 10, 51, 8},
		{100, 20, 21, 21},
	} {
		plan := &xnoise.Plan{NumClients: tc.n, DropoutTolerance: 1, Threshold: tc.base, TargetVariance: 10}
		base := secagg.Config{Round: 1, ClientIDs: ids(tc.n), Threshold: tc.base, Bits: 20, Dim: 8, XNoise: plan}
		cfg, err := NewConfig(base, tc.degree)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Threshold != tc.want || cfg.XNoise.Threshold != tc.want {
			t.Errorf("n=%d degree=%d threshold %d: rewritten to %d (plan %d), want %d",
				tc.n, tc.degree, tc.base, cfg.Threshold, cfg.XNoise.Threshold, tc.want)
		}
		if plan.Threshold != tc.base {
			t.Errorf("n=%d threshold %d: the caller's plan moved to %d", tc.n, tc.base, plan.Threshold)
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("n=%d threshold %d: %v", tc.n, tc.base, err)
		}
	}
}
