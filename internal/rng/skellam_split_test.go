package rng

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/internal/prg"
)

// skellamPMF returns P(X = k) for X ~ Skellam(mu) from the inversion
// table's CDF, 0 outside the built support.
func skellamPMF(tab *skellamTable, k int64) float64 {
	i := int(k - tab.kmin)
	if i < 0 || i >= len(tab.cdf) {
		return 0
	}
	if i == 0 {
		return tab.cdf[0]
	}
	return tab.cdf[i] - tab.cdf[i-1]
}

// chiSquareBound is the acceptance bound for a χ² statistic on dof degrees
// of freedom: six standard deviations above the mean. Every test here runs
// on a fixed seed, so the bound guards against a wrong distribution, not
// against an unlucky run.
func chiSquareBound(dof int) float64 {
	return float64(dof) + 6*math.Sqrt(2*float64(dof))
}

// TestSkellamSplitMarginal: the per-coordinate marginal of the epoch-0
// sampler against the exact Skellam pmf, at the sparse variances XNoise
// components have, mid-range, and on both sides of the λ = 0.5 dispatch.
func TestSkellamSplitMarginal(t *testing.T) {
	const dim = 400000
	for _, mu := range []float64{0.01, 0.04, 0.5, 0.99, math.Nextafter(1, 0), 1, 1.01} {
		out := make([]int64, dim)
		AddSkellamSplit(stream(fmt.Sprintf("split-marginal-%v", mu)), mu, out)
		tab := buildSkellamTable(mu)

		// Cells: every k whose expected count is ≥ 10, both tails pooled.
		var ks []int64
		for k := int64(-12); k <= 12; k++ {
			if skellamPMF(tab, k)*dim >= 10 {
				ks = append(ks, k)
			}
		}
		lo, hi := ks[0], ks[len(ks)-1]
		observed := make([]float64, len(ks)+1) // last cell: both tails
		for _, v := range out {
			if v < lo || v > hi {
				observed[len(ks)]++
			} else {
				observed[v-lo]++
			}
		}
		var chi2, inside float64
		for i, k := range ks {
			e := skellamPMF(tab, k) * dim
			inside += e
			chi2 += (observed[i] - e) * (observed[i] - e) / e
		}
		dof := len(ks) - 1
		if tail := dim - inside; tail >= 5 {
			chi2 += (observed[len(ks)] - tail) * (observed[len(ks)] - tail) / tail
			dof++
		} else if observed[len(ks)] > 5*tail+5 {
			t.Errorf("mu=%v: %v draws outside [%d, %d], expected %.2f", mu, observed[len(ks)], lo, hi, tail)
		}
		if chi2 > chiSquareBound(dof) {
			t.Errorf("mu=%v: χ² = %.1f on %d dof (bound %.1f)", mu, chi2, dof, chiSquareBound(dof))
		}
	}
}

// TestSkellamSplitMomentsAndIndependence: mean 0, variance μ, and no
// correlation between neighbouring or distant coordinates of one fill
// (the unit counts are multinomial given N, independent only because N is
// Poisson — a wrong count distribution shows up here as covariance).
func TestSkellamSplitMomentsAndIndependence(t *testing.T) {
	const dim = 400000
	for _, mu := range []float64{0.03, 0.4, 0.99} {
		out := make([]int64, dim)
		AddSkellamSplit(stream(fmt.Sprintf("split-moments-%v", mu)), mu, out)
		var sum, sumSq, lag1, far float64
		for i, v := range out {
			sum += float64(v)
			sumSq += float64(v * v)
			lag1 += float64(v * out[(i+1)%dim])
			far += float64(v * out[(i+dim/2)%dim])
		}
		mean := sum / dim
		se := math.Sqrt(mu / dim)
		if math.Abs(mean) > 5*se {
			t.Errorf("mu=%v: mean %v, want 0 ± %v", mu, mean, 5*se)
		}
		// Var(X²) = μ + 2μ² for Skellam.
		if v := sumSq/dim - mean*mean; math.Abs(v-mu) > 5*math.Sqrt((mu+2*mu*mu)/dim) {
			t.Errorf("mu=%v: variance %v", mu, v)
		}
		for name, c := range map[string]float64{"lag-1": lag1 / dim, "half-vector": far / dim} {
			if math.Abs(c) > 5*mu/math.Sqrt(dim) {
				t.Errorf("mu=%v: %s covariance %v, want 0 ± %v", mu, name, c, 5*mu/math.Sqrt(dim))
			}
		}
	}
}

// TestSkellamSplitShortVectors: lengths 1 and 3, where the total mass is
// a fraction of a unit and the count draw decides everything. Every
// coordinate has variance μ and distinct coordinates are uncorrelated
// across repeated fills.
func TestSkellamSplitShortVectors(t *testing.T) {
	const mu, fills = 0.6, 200000
	for _, n := range []int{1, 3} {
		s := stream(fmt.Sprintf("split-short-%d", n))
		sumSq := make([]float64, n)
		var cross float64
		out := make([]int64, n)
		for f := 0; f < fills; f++ {
			clear(out)
			AddSkellamSplit(s, mu, out)
			for i, v := range out {
				sumSq[i] += float64(v * v)
			}
			cross += float64(out[0] * out[n-1])
		}
		for i := range sumSq {
			if v := sumSq[i] / fills; math.Abs(v-mu) > 5*math.Sqrt((mu+2*mu*mu)/fills) {
				t.Errorf("len %d: coordinate %d variance %v, want ≈%v", n, i, v, mu)
			}
		}
		if n > 1 && math.Abs(cross/fills) > 5*mu/math.Sqrt(fills) {
			t.Errorf("len %d: covariance of first and last coordinate %v", n, cross/fills)
		}
	}
}

// TestIndexDrawUniform: the Lemire index draw is uniform on [0, n) for
// n = 1, small and large non-powers of two, and stays in range where the
// rejection arm fires on about half the draws.
func TestIndexDrawUniform(t *testing.T) {
	for _, n := range []uint64{1, 3, 1000, 100003} {
		b := newUniformBatch(stream(fmt.Sprintf("index-%d", n)), math.MaxInt)
		draws := 40 * int(n)
		if draws < 100000 {
			draws = 100000
		}
		counts := make([]float64, n)
		for i := 0; i < draws; i++ {
			counts[b.index(n)]++ // an out-of-range draw panics here
		}
		b.release()
		e := float64(draws) / float64(n)
		var chi2 float64
		for _, c := range counts {
			chi2 += (c - e) * (c - e) / e
		}
		if n > 1 && chi2 > chiSquareBound(int(n)-1) {
			t.Errorf("n=%d: χ² = %.1f on %d dof (bound %.1f)", n, chi2, n-1, chiSquareBound(int(n)-1))
		}
	}

	const n = 1<<63 + 1 // 2^64 mod n = n−2: nearly every other draw is rejected
	b := newUniformBatch(stream("index-reject"), math.MaxInt)
	const draws = 100000
	var low float64
	for i := 0; i < draws; i++ {
		v := b.index(n)
		if v >= n {
			t.Fatalf("index(%d) = %d out of range", uint64(n), v)
		}
		if v < n/2 {
			low++
		}
	}
	b.release()
	if math.Abs(low/draws-0.5) > 5*0.5/math.Sqrt(draws) {
		t.Errorf("n=2^63+1: %.4f of draws in the lower half, want ≈0.5", low/draws)
	}
}

// TestSkellamSplitDegenerate: an empty vector and a non-positive (or NaN)
// variance add nothing and leave the stream untouched.
func TestSkellamSplitDegenerate(t *testing.T) {
	s := stream("split-degenerate")
	AddSkellamSplit(s, 0.3, nil)
	AddSkellamSplit(s, 0.3, []int64{})
	acc := []int64{5, -2, 0}
	for _, mu := range []float64{0, -1, math.NaN()} {
		AddSkellamSplit(s, mu, acc)
	}
	if acc[0] != 5 || acc[1] != -2 || acc[2] != 0 {
		t.Errorf("degenerate fills changed the accumulator: %v", acc)
	}
	if s.Offset() != 0 {
		t.Errorf("degenerate fills consumed %d stream bytes", s.Offset())
	}
}

// TestSkellamSplitAccumulates: a fill adds the same vector to whatever acc
// already holds — the property xnoise.TotalNoise / RemovalNoise sum
// components with.
func TestSkellamSplitAccumulates(t *testing.T) {
	for _, mu := range []float64{0.05, 0.9, 4} {
		fresh := make([]int64, 1000)
		AddSkellamSplit(stream("split-acc"), mu, fresh)
		acc := make([]int64, len(fresh))
		for i := range acc {
			acc[i] = int64(i) - 500
		}
		AddSkellamSplit(stream("split-acc"), mu, acc)
		for i := range acc {
			if acc[i] != fresh[i]+int64(i)-500 {
				t.Fatalf("mu=%v: acc[%d] = %d, want %d", mu, i, acc[i], fresh[i]+int64(i)-500)
			}
		}
	}
}

// TestSkellamSplitDispatch: which algorithm runs is a function of the
// variance alone — inversion from μ = 1 (λ = 0.5) up, splitting below, at
// any length — and the output does not depend on GOMAXPROCS.
func TestSkellamSplitDispatch(t *testing.T) {
	fill := func(mu float64, n int) []int64 {
		out := make([]int64, n)
		AddSkellamSplit(stream("split-dispatch"), mu, out)
		return out
	}
	inv := func(mu float64, n int) []int64 {
		out := make([]int64, n)
		AddSkellamInv(stream("split-dispatch"), mu, out)
		return out
	}
	same := func(a, b []int64) bool {
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	below := math.Nextafter(1, 0)
	for _, n := range []int{64, 5000} {
		for _, mu := range []float64{1, 1.5, 16} {
			if !same(fill(mu, n), inv(mu, n)) {
				t.Errorf("mu=%v len=%d: not the inversion sequence", mu, n)
			}
		}
		for _, mu := range []float64{0.03, below} {
			if same(fill(mu, n), inv(mu, n)) {
				t.Errorf("mu=%v len=%d: the inversion sequence below the dispatch boundary", mu, n)
			}
		}
	}

	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	for _, mu := range []float64{0.03, below, 1, 16} {
		one := fill(mu, 5000)
		runtime.GOMAXPROCS(4)
		four := fill(mu, 5000)
		runtime.GOMAXPROCS(1)
		if !same(one, four) {
			t.Errorf("mu=%v: output differs between GOMAXPROCS 1 and 4", mu)
		}
	}
}

// TestVectorSamplersConcurrent: the prefetch batches are pooled across
// goroutines; concurrent fills must each still produce their seed's vector.
func TestVectorSamplersConcurrent(t *testing.T) {
	samplers := []func(*prg.Stream, float64, []int64){AddSkellamSplit, AddSkellamInv, SkellamVector}
	mus := []float64{0.03, 0.7, 16}
	want := make([][]int64, len(samplers)*len(mus))
	for i := range want {
		want[i] = make([]int64, 3000)
		samplers[i%len(samplers)](stream("concurrent"), mus[i/len(samplers)], want[i])
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := make([]int64, 3000)
			for rep := 0; rep < 20; rep++ {
				for i := range want {
					clear(got)
					samplers[i%len(samplers)](stream("concurrent"), mus[i/len(samplers)], got)
					for j := range got {
						if got[j] != want[i][j] {
							t.Errorf("sampler %d, mu=%v: concurrent fill differs at %d", i%len(samplers), mus[i/len(samplers)], j)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestSkellamEpoch0GoldenSequence is the NoiseEpoch-0 version pin, frozen
// with the PR that made the splitting sampler epoch 0. If it fails, noise
// added under epoch 0 by one build is no longer what another build
// removes. The dense row pins the inversion sequence (epoch 1) with it.
func TestSkellamEpoch0GoldenSequence(t *testing.T) {
	// A 16-coordinate vector just under the dispatch boundary.
	out := make([]int64, 16)
	AddSkellamSplit(stream("noise-epoch-golden"), 0.9, out)
	want := []int64{1, 0, 0, 0, -2, 0, 2, 1, 0, 0, -1, 0, 0, 1, -1, 0}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("epoch-0 golden sequence changed: mu=0.9 [%d] = %d, want %d", i, out[i], want[i])
		}
	}

	// An XNoise-shaped component: the first 16 coordinates that receive
	// noise, and what they receive.
	out = make([]int64, 4096)
	AddSkellamSplit(stream("noise-epoch-golden"), 0.03, out)
	type hit struct {
		at int
		v  int64
	}
	sparse := []hit{{16, -1}, {18, -1}, {29, 1}, {35, -1}, {80, 1}, {132, 1}, {169, -1}, {177, 1},
		{202, -1}, {217, -1}, {222, 1}, {233, -1}, {237, -1}, {358, -1}, {359, -1}, {384, -1}}
	var got []hit
	for i, v := range out {
		if v != 0 && len(got) < len(sparse) {
			got = append(got, hit{i, v})
		}
	}
	for i := range sparse {
		if i >= len(got) || got[i] != sparse[i] {
			t.Fatalf("epoch-0 golden sequence changed: mu=0.03 nonzeros %v, want %v", got, sparse)
		}
	}

	// Above the boundary: the inversion sequence.
	out = make([]int64, 16)
	AddSkellamSplit(stream("noise-epoch-golden"), 16, out)
	dense := []int64{-4, -5, 1, 5, -1, -1, -2, 1, 0, -3, -2, 4, -8, -1, -2, 4}
	for i := range dense {
		if out[i] != dense[i] {
			t.Fatalf("epoch-0 golden sequence changed: mu=16 [%d] = %d, want %d", i, out[i], dense[i])
		}
	}
}

// TestSkellamSplitPrefetchSized: a sparse fill prefetches about as many
// words as it has units to place, not the dense samplers' 512-word quantum
// per refill.
func TestSkellamSplitPrefetchSized(t *testing.T) {
	s := stream("split-prefetch")
	out := make([]int64, 4096)
	AddSkellamSplit(s, 0.03, out) // ≈123 units, two PTRS count draws
	var units int64
	for _, v := range out {
		if v < 0 {
			v = -v
		}
		units += v
	}
	if max := uint64(8 * (units + 150)); s.Offset() > max {
		t.Errorf("sparse fill of ≥%d units consumed %d bytes, want ≤ %d", units, s.Offset(), max)
	}
}
