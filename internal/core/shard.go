package core

import (
	"fmt"
	"sort"
)

// ShardPlan partitions a sampled roster into S shard sub-rosters for the
// two-level topology: each shard runs a complete wire round over its
// sub-roster (RunShardWire), and the root combiner folds the shard
// partials (RunCombiner). The partition is deterministic in (ids, S) so every
// party — shard aggregators, combiner, clients — derives the same plan
// from the round announcement without extra coordination.
type ShardPlan struct {
	// Rosters[s] is shard s's sorted sub-roster. Shard ids are the
	// indices 0..S−1.
	Rosters [][]uint64
}

// minShardClients is the smallest sub-roster a shard can run a round
// over (secure aggregation needs at least a pair to mask).
const minShardClients = 2

// NewShardPlan splits the sorted roster into s contiguous, balanced
// sub-rosters (sizes differ by at most one). Contiguous blocks keep each
// shard's id range compact, which the wire driver exploits for routing.
func NewShardPlan(ids []uint64, s int) (*ShardPlan, error) {
	if s < 1 {
		return nil, fmt.Errorf("core: shard count %d < 1", s)
	}
	if len(ids) < s*minShardClients {
		return nil, fmt.Errorf("core: %d clients cannot fill %d shards of >= %d", len(ids), s, minShardClients)
	}
	sorted := append([]uint64(nil), ids...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return nil, fmt.Errorf("core: duplicate client id %d", sorted[i])
		}
	}
	plan := &ShardPlan{Rosters: make([][]uint64, s)}
	base, extra := len(sorted)/s, len(sorted)%s
	off := 0
	for i := 0; i < s; i++ {
		n := base
		if i < extra {
			n++
		}
		plan.Rosters[i] = sorted[off : off+n : off+n]
		off += n
	}
	return plan, nil
}

// ShardOf returns the shard owning client id, or -1 if the id is not in
// the plan.
func (p *ShardPlan) ShardOf(id uint64) int {
	for s, roster := range p.Rosters {
		if len(roster) == 0 {
			continue
		}
		if id < roster[0] || id > roster[len(roster)-1] {
			continue
		}
		i := sort.Search(len(roster), func(i int) bool { return roster[i] >= id })
		if i < len(roster) && roster[i] == id {
			return s
		}
	}
	return -1
}

// ShardIDs returns the shard aggregator ids 0..S−1 (the ids the combiner
// expects partials from).
func (p *ShardPlan) ShardIDs() []uint64 {
	out := make([]uint64, len(p.Rosters))
	for i := range out {
		out[i] = uint64(i)
	}
	return out
}
