package core

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/combine"
	"repro/internal/engine"
	"repro/internal/prg"
	"repro/internal/secagg"
	"repro/internal/skellam"
)

// ShardPlan partitions a sampled roster into S shard sub-rosters for the
// two-level topology: each shard runs a complete engine-backed round
// (runRoundRing) over its sub-roster, and the root combiner folds the
// shard partials. The partition is deterministic in (ids, S) so every
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

// ShardedRoundConfig configures one two-level round. The embedded
// RoundConfig is interpreted *per shard*: Threshold and Tolerance bound
// each shard's sub-round (so Threshold must not exceed the smallest
// sub-roster), Protocol resolves per shard size (ProtocolAuto may pick
// classic SecAgg inside a small shard of a large round), and TargetMu
// remains the *central* noise target — RunShardedRound divides it by the
// shard count, because independent per-shard Skellam noise at μ/S
// composes additively to the central μ (the XNoise decomposition; see
// package combine).
type ShardedRoundConfig struct {
	RoundConfig
	// Shards is the shard count S (>= 1; 1 degenerates to RunRound's
	// topology with combiner bookkeeping on top).
	Shards int
	// ShardQuorum is the minimum number of shard partials the combiner
	// folds (0 = all). A shard that errors or never seals degrades the
	// round at or above quorum and aborts it below.
	ShardQuorum int
	// ShardSessions optionally provides one SessionPool per shard (length
	// Shards) so each shard amortizes its own sub-roster's key agreements
	// across rounds; nil runs every shard with fresh keys. The embedded
	// RoundConfig.Sessions must be nil when set — pools never span a
	// shard boundary, exactly as mask graphs never do.
	ShardSessions []*SessionPool
}

// ShardedRoundResult is the outcome of one two-level round: the decoded
// central aggregate plus the combiner's shard-level report.
type ShardedRoundResult struct {
	// Sum is the decoded central aggregate over the contributing shards'
	// survivors.
	Sum []float64
	// Report is the combiner's fold: contributing/missing shards, merged
	// survivor accounting, degraded flag.
	Report *combine.RoundReport
	// ShardErrs records why each missing shard failed (shard id → error);
	// empty for a clean round.
	ShardErrs map[uint64]error
	// Plan is the partition the round ran over.
	Plan *ShardPlan
}

// shardConfig derives shard s's RoundConfig from the sharded config: the
// per-shard Seed fork keeps noise and mask streams independent across
// shards (correctness-critical — a shared seed would correlate the
// "independent" Skellam draws the μ/S composition relies on), and the
// per-shard noise target splits the central μ.
func (cfg ShardedRoundConfig) shardConfig(s int) RoundConfig {
	sc := cfg.RoundConfig
	sc.Seed = prg.NewSeed(cfg.Seed[:], []byte(fmt.Sprintf("shard%d", s)))
	if sc.Tolerance > 0 {
		sc.TargetMu = cfg.TargetMu / float64(cfg.Shards)
	}
	sc.Sessions = nil
	if cfg.ShardSessions != nil {
		sc.Sessions = cfg.ShardSessions[s]
	}
	return sc
}

// RunShardedRound executes one two-level round in-process: the roster is
// partitioned by NewShardPlan, every shard runs the full engine-backed
// round (runRoundRing — sessions, dropout reconstruction and XNoise
// removal all shard-local) concurrently, and the partials fold through
// combine.Combiner. A failed shard (below its own threshold, crashed)
// degrades the round when at least ShardQuorum partials seal; the report
// names the missing shards and ShardErrs records their failures.
func RunShardedRound(cfg ShardedRoundConfig, updates map[uint64][]float64, drops []uint64, rand io.Reader) (*ShardedRoundResult, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("core: shard count %d < 1", cfg.Shards)
	}
	if cfg.ShardSessions != nil && len(cfg.ShardSessions) != cfg.Shards {
		return nil, fmt.Errorf("core: %d session pools for %d shards", len(cfg.ShardSessions), cfg.Shards)
	}
	if cfg.ShardSessions != nil && cfg.RoundConfig.Sessions != nil {
		return nil, fmt.Errorf("core: RoundConfig.Sessions must be nil when ShardSessions is set")
	}
	plan, err := NewShardPlan(sortedMapKeys(updates), cfg.Shards)
	if err != nil {
		return nil, err
	}
	// Route drops and the per-stage schedule to their owning shards.
	dropsBy := make([][]uint64, cfg.Shards)
	for _, id := range drops {
		s := plan.ShardOf(id)
		if s < 0 {
			return nil, fmt.Errorf("core: dropped client %d not in sampled set", id)
		}
		dropsBy[s] = append(dropsBy[s], id)
	}

	// Deterministic test readers are rarely goroutine-safe, and the shard
	// rounds run concurrently.
	rng := engine.SharedReader(rand)
	type shardOutcome struct {
		partial *roundPartial
		err     error
	}
	outcomes := make([]shardOutcome, cfg.Shards)
	var wg sync.WaitGroup
	for s := 0; s < cfg.Shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			sc := cfg.shardConfig(s)
			sub := make(map[uint64][]float64, len(plan.Rosters[s]))
			for _, id := range plan.Rosters[s] {
				sub[id] = updates[id]
			}
			if len(sc.DropSchedule) > 0 {
				sched := make(secagg.DropSchedule, len(sc.DropSchedule))
				for id, st := range sc.DropSchedule {
					if plan.ShardOf(id) == s {
						sched[id] = st
					}
				}
				sc.DropSchedule = sched
			}
			p, err := runRoundRing(sc, sub, dropsBy[s], rng)
			outcomes[s] = shardOutcome{partial: p, err: err}
		}(s)
	}
	wg.Wait()

	comb, err := combine.New(cfg.Round, plan.ShardIDs(), cfg.ShardQuorum)
	if err != nil {
		return nil, err
	}
	res := &ShardedRoundResult{ShardErrs: make(map[uint64]error), Plan: plan}
	for s, o := range outcomes {
		if o.err != nil {
			res.ShardErrs[uint64(s)] = o.err
			continue
		}
		err := comb.Add(combine.Partial{
			Shard: uint64(s), Round: cfg.Round, Sum: o.partial.Sum,
			Survivors: o.partial.Survivors, Dropped: o.partial.Dropped,
			RemovedComponents: o.partial.RemovedComponents,
		})
		if err != nil {
			return nil, err
		}
	}
	report, err := comb.Seal()
	if err != nil {
		// Below quorum: surface the shard failures alongside the seal error.
		for s, serr := range res.ShardErrs {
			err = fmt.Errorf("%w; shard %d: %v", err, s, serr)
		}
		return nil, err
	}
	res.Report = report
	if res.Sum, err = skellam.Decode(cfg.Codec, report.Sum); err != nil {
		return nil, err
	}
	return res, nil
}
