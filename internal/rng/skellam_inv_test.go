package rng

import (
	"math"
	"testing"

	"repro/internal/prg"
)

// TestSkellamInvMoments: mean ≈ 0, variance ≈ μ across the Knuth regime,
// the PTRS regime, and past the InvMaxMu fallback cap.
func TestSkellamInvMoments(t *testing.T) {
	for _, mu := range []float64{0.2, 4, 16, 80, 5000, float64(InvMaxMu) * 2} {
		s := stream("skellam-inv")
		n := 60000
		if mu > InvMaxMu {
			n = 20000
		}
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			v := float64(SkellamInv(s, mu))
			sum += v
			sumSq += v * v
		}
		mean := sum / float64(n)
		variance := sumSq/float64(n) - mean*mean
		if math.Abs(mean) > 4*math.Sqrt(mu/float64(n))+0.02 {
			t.Errorf("SkellamInv(%v) mean %v, want ≈0", mu, mean)
		}
		if math.Abs(variance-mu) > 0.1*mu+0.05 {
			t.Errorf("SkellamInv(%v) variance %v, want ≈%v", mu, variance, mu)
		}
	}
}

// TestSkellamInvClosedUnderSum: sums of inversion-sampled variates keep
// the additive-variance property Theorem 1 needs, at small and large λ.
func TestSkellamInvClosedUnderSum(t *testing.T) {
	for _, mu := range []float64{3.0, 400.0} {
		s := stream("skellam-inv-sum")
		const k, n = 8, 30000
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			var acc int64
			for j := 0; j < k; j++ {
				acc += SkellamInv(s, mu)
			}
			v := float64(acc)
			sum += v
			sumSq += v * v
		}
		mean := sum / n
		variance := sumSq/n - mean*mean
		want := float64(k) * mu
		if math.Abs(variance-want) > 0.1*want {
			t.Errorf("sum of %d SkellamInv(%v): variance %v, want ≈%v", k, mu, variance, want)
		}
	}
}

// TestSkellamInvPMFMatchesExact cross-validates the inversion table
// against the exact two-Poisson sampler: empirical frequencies of 300k exact
// draws must match the table's pmf on the central support.
func TestSkellamInvPMFMatchesExact(t *testing.T) {
	const mu = 6.0
	tab := skellamTableFor(mu)
	s := stream("skellam-pmf-xcheck")
	const n = 300000
	counts := make(map[int64]int)
	for i := 0; i < n; i++ {
		counts[Skellam(s, mu)]++
	}
	for k := int64(-8); k <= 8; k++ {
		pmf := skellamPMF(tab, k)
		got := float64(counts[k]) / n
		// 5σ binomial tolerance plus a floor for tiny cells.
		tol := 5*math.Sqrt(pmf/n) + 1e-4
		if math.Abs(got-pmf) > tol {
			t.Errorf("pmf(%d): table %v, empirical %v (tol %v)", k, pmf, got, tol)
		}
	}
}

// TestAddSkellamInvMatchesScalar: the bulk fill draws the same value
// sequence as scalar SkellamInv calls on a dedicated stream.
func TestAddSkellamInvMatchesScalar(t *testing.T) {
	for _, mu := range []float64{0.5, 16, 1000} {
		const n = 2000
		want := make([]int64, n)
		s1 := stream("inv-vec-vs-scalar")
		for i := range want {
			want[i] = SkellamInv(s1, mu)
		}
		got := make([]int64, n)
		s2 := stream("inv-vec-vs-scalar")
		AddSkellamInv(s2, mu, got)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("mu=%v: AddSkellamInv[%d] = %d, want %d", mu, i, got[i], want[i])
			}
		}
	}
}

// TestSkellamInvGuardBand: uniforms in the guard bands take the exact
// two-Poisson path, keeping the full integer support reachable; band
// edges invert to the extreme table entries without walking off the CDF.
func TestSkellamInvGuardBand(t *testing.T) {
	const mu = 9.0
	tab := skellamTableFor(mu)

	// Scripted uniforms: first the guard-band trigger, then real stream
	// uniforms for the exact fallback draws.
	s := stream("guard-band")
	for _, trigger := range []float64{0, invGuardMass / 2, tab.uHi, math.Nextafter(1, 0)} {
		calls := 0
		next := func() float64 {
			calls++
			if calls == 1 {
				return trigger
			}
			return s.Float64()
		}
		v := tab.draw(next)
		if calls < 2 {
			t.Errorf("guard trigger %v: exact fallback not taken (%d uniforms)", trigger, calls)
		}
		if math.Abs(float64(v)) > 40*math.Sqrt(mu) {
			t.Errorf("guard trigger %v: implausible variate %d", trigger, v)
		}
	}

	// Just inside the served band: one uniform, extreme table entries.
	for _, tc := range []struct {
		u    float64
		want int64
	}{
		{tab.uLo, tab.kmin + int64(firstAbove(tab.cdf, tab.uLo))},
		{math.Nextafter(tab.uHi, 0), tab.kmin + int64(firstAbove(tab.cdf, math.Nextafter(tab.uHi, 0)))},
	} {
		got := tab.draw(func() float64 { return tc.u })
		if got != tc.want {
			t.Errorf("u=%v: draw %d, want %d", tc.u, got, tc.want)
		}
	}
}

func firstAbove(cdf []float64, u float64) int {
	for i, c := range cdf {
		if c > u {
			return i
		}
	}
	return len(cdf) - 1
}

// TestSkellamVectorLegacyGoldenSequence pins the two-Poisson sampler
// (SkellamVector) to the exact Knuth/PTRS draw sequence of the seed
// implementation for a fixed seed, byte for byte. It was NoiseEpoch 0 until
// the splitting sampler took that number; the fl harness still draws from
// it and both epochs fall back on it above InvMaxMu, so a change here
// changes their sequences too.
func TestSkellamVectorLegacyGoldenSequence(t *testing.T) {
	golden := map[float64][]int64{
		// Knuth regime (λ = mu/2 = 8).
		16: {3, -1, -3, -3, 0, 0, 2, 5, 9, -5, 0, -3, 1, -6, 4, 3},
		// PTRS regime (λ = 40).
		80: {-10, 3, 5, -3, -9, 15, 5, 1, -13, 2, -2, 11, -7, 9, -3, -4},
	}
	for mu, want := range golden {
		out := make([]int64, len(want))
		SkellamVector(stream("noise-epoch-golden"), mu, out)
		for i := range want {
			if out[i] != want[i] {
				t.Fatalf("legacy golden sequence changed: SkellamVector(mu=%v)[%d] = %d, want %d",
					mu, i, out[i], want[i])
			}
		}
		// Scalar draws from a dedicated stream must agree with the vector
		// values (the documented value-sequence contract).
		s := stream("noise-epoch-golden")
		for i := range want {
			if got := Skellam(s, mu); got != want[i] {
				t.Fatalf("scalar Skellam(mu=%v) draw %d = %d, want %d", mu, i, got, want[i])
			}
		}
	}
}

// TestSkellamVectorStreamPositionContract pins the documented
// stream-consumption contract of the dense vector fills: the draw VALUE
// sequence equals scalar draws, but uniforms are prefetched in 512-word
// batches, so the stream position after a fill is a multiple of the batch
// quantum and generally differs from the scalar position. (The splitting
// sampler sizes its prefetch to its noise mass instead —
// TestSkellamSplitPrefetchSized.) Callers may NOT interleave a vector fill
// with further draws from the same stream and expect scalar-equivalent
// positions — every protocol fill uses a dedicated seed-derived stream
// (xnoise.ComponentNoise).
func TestSkellamVectorStreamPositionContract(t *testing.T) {
	const mu, n = 16.0, 257
	fills := []struct {
		name string
		fill func(*prg.Stream, []int64)
	}{
		{"two-poisson", func(s *prg.Stream, out []int64) { SkellamVector(s, mu, out) }},
		{"inversion", func(s *prg.Stream, out []int64) { AddSkellamInv(s, mu, out) }},
	}
	for _, f := range fills {
		sv := stream("stream-pos-" + f.name)
		out := make([]int64, n)
		f.fill(sv, out)
		const quantum = 512 * 8 // uniformBatch prefetch in bytes
		if sv.Offset()%quantum != 0 {
			t.Errorf("%s: position %d after fill is not a batch quantum multiple", f.name, sv.Offset())
		}

		// A second fill from the same stream is still well-defined and
		// deterministic (batch quanta are part of the contract)...
		out2 := make([]int64, n)
		f.fill(sv, out2)
		svRef := stream("stream-pos-" + f.name)
		ref := make([]int64, 2*n)
		f.fill(svRef, ref[:n])
		f.fill(svRef, ref[n:])
		for i := range out2 {
			if out2[i] != ref[n+i] {
				t.Fatalf("%s: consecutive fills from one stream are not deterministic", f.name)
			}
		}
	}
}
