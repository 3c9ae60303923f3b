// Package secaggplus implements SecAgg+ (Bell et al., CCS 2020,
// "Secure single-server aggregation with (poly)logarithmic overhead"),
// the state-of-the-art SecAgg successor Dordis evaluates against (paper
// §2.3.2 and §6.4).
//
// SecAgg+ replaces SecAgg's complete communication graph with a k-regular
// graph of degree O(log n): each client establishes pairwise masks and
// secret-shares its keys with only k neighbors, cutting the per-client
// computation and communication from O(n) to O(log n) while retaining
// dropout robustness and (with a suitable k) malicious security with high
// probability.
//
// The package provides the Harary-style k-regular circulant graph, a
// Config constructor that plugs it into the secagg engine (which is
// topology-generic), and the asymptotic cost model used by the round-time
// experiments (Figs. 2 and 10).
package secaggplus

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/secagg"
)

// CirculantGraph is the k-regular Harary-style graph over a sorted id set:
// node i is adjacent to the k/2 successors and k/2 predecessors in the
// ring ordering. It is symmetric and, for k ≥ 2, connected.
type CirculantGraph struct {
	ids    []uint64
	index  map[uint64]int
	degree int
}

// NewCirculantGraph builds a graph of even degree over ids. The degree is
// clamped to len(ids)−1 (complete graph) and rounded up to even.
func NewCirculantGraph(ids []uint64, degree int) (*CirculantGraph, error) {
	n := len(ids)
	if n < 2 {
		return nil, fmt.Errorf("secaggplus: need at least 2 nodes, got %d", n)
	}
	if degree < 2 {
		return nil, fmt.Errorf("secaggplus: degree %d < 2", degree)
	}
	if degree%2 == 1 {
		degree++
	}
	if degree > n-1 {
		degree = n - 1 // complete
	}
	sorted := append([]uint64(nil), ids...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	index := make(map[uint64]int, n)
	for i, id := range sorted {
		if _, dup := index[id]; dup {
			return nil, fmt.Errorf("secaggplus: duplicate id %d", id)
		}
		index[id] = i
	}
	return &CirculantGraph{ids: sorted, index: index, degree: degree}, nil
}

// Degree returns the (even, clamped) degree.
func (g *CirculantGraph) Degree() int { return g.degree }

// Neighbors implements secagg.Graph.
func (g *CirculantGraph) Neighbors(id uint64) []uint64 {
	i, ok := g.index[id]
	if !ok {
		return nil
	}
	n := len(g.ids)
	if g.degree >= n-1 {
		out := make([]uint64, 0, n-1)
		for _, v := range g.ids {
			if v != id {
				out = append(out, v)
			}
		}
		return out
	}
	seen := map[uint64]struct{}{}
	out := make([]uint64, 0, g.degree)
	for d := 1; d <= g.degree/2; d++ {
		for _, j := range []int{(i + d) % n, (i - d + n) % n} {
			v := g.ids[j]
			if v == id {
				continue
			}
			if _, dup := seen[v]; dup {
				continue
			}
			seen[v] = struct{}{}
			out = append(out, v)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// RecommendedDegree returns the O(log n) neighborhood size suggested by
// the SecAgg+ analysis for correctness and security except with
// probability 2^−σ, simplified to the common rule of thumb
// k = ⌈c·log₂ n⌉ rounded to even, with c = 3 (covers σ ≈ 40 at the
// deployment sizes evaluated in the paper).
func RecommendedDegree(n int) int {
	if n <= 2 {
		return 2
	}
	k := int(math.Ceil(3 * math.Log2(float64(n))))
	if k%2 == 1 {
		k++
	}
	if k > n-1 {
		k = n - 1
	}
	if k < 2 {
		k = 2
	}
	return k
}

// NewConfig derives a SecAgg+ round config from a base secagg config:
// it installs the k-regular graph (degree defaulting to
// RecommendedDegree) and lowers the threshold to ⌈2(k+1)/3⌉ within the
// neighborhood if the base threshold does not fit, mirroring SecAgg+'s
// per-neighborhood reconstruction threshold.
func NewConfig(base secagg.Config, degree int) (secagg.Config, error) {
	n := len(base.ClientIDs)
	if degree <= 0 {
		degree = RecommendedDegree(n)
	}
	g, err := NewCirculantGraph(base.ClientIDs, degree)
	if err != nil {
		return secagg.Config{}, err
	}
	cfg := base
	cfg.Graph = g
	if cfg.Threshold > g.Degree()+1 {
		cfg.Threshold = (2*(g.Degree()+1) + 2) / 3
		if cfg.Threshold < 2 {
			cfg.Threshold = 2
		}
		if cfg.XNoise != nil {
			plan := *cfg.XNoise
			plan.Threshold = cfg.Threshold
			cfg.XNoise = &plan
		}
	}
	return cfg, nil
}
