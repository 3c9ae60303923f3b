// Package combine implements the root combiner of the two-level sharded
// aggregation topology: S shard aggregators each run a full engine-backed
// secure-aggregation round over their sub-roster and emit a masked partial
// sum plus survivor/noise accounting; the combiner folds the partials into
// the round aggregate with quorum semantics.
//
// Why per-shard partial sums are sound (the paper's XNoise decomposition):
// within one shard, every pairwise mask cancels in the shard's own sum —
// the mask graph never crosses a shard boundary, because each shard runs a
// complete protocol instance over exactly its sub-roster. Dropout
// reconstruction, churn taint and per-edge re-key are likewise shard-local.
// What *adds* across shards is the XNoise: each shard enforces an additive
// per-shard noise target, and since independent Skellam noise is closed
// under addition, S shards at target μ/S compose to the central target μ.
// The combiner therefore only ever needs modular vector addition
// (ring.AddManyInPlace) plus bookkeeping — no cryptography crosses the
// combiner boundary.
//
// Degraded rounds: a shard whose partial never arrives (crash, partition,
// deadline) is not an abort. As long as Quorum partials arrived, Seal
// produces the fold over the contributing shards and the RoundReport names
// the missing ones — the aggregate is simply over a smaller cohort, exactly
// like a client dropout one level down. See ARCHITECTURE.md ("Sharded
// topology") and PROTOCOL.md for the combiner frame family
// (engine.TagShardHello/TagShardPartial/TagCombineReport).
package combine

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/ring"
)

// Partial is one shard aggregator's sealed contribution to a round: the
// shard cohort's fully unmasked, noise-adjusted ring sum plus the
// accounting the combiner folds into the round report.
type Partial struct {
	// Shard identifies the shard aggregator (its id on the combiner
	// connection).
	Shard uint64
	// Round is the combiner-level round the partial belongs to; a
	// mismatch is a stale partial (ErrStalePartial).
	Round uint64
	// Sum is the shard's aggregate: masks cancelled, dropout-adjusted,
	// excess XNoise components already removed shard-locally.
	Sum ring.Vector
	// Survivors and Dropped partition the shard's sub-roster by whether
	// the client's update is in Sum.
	Survivors []uint64
	Dropped   []uint64
	// RemovedComponents lists the XNoise component indices the shard
	// subtracted for its own dropout count (noise-share accounting; empty
	// without XNoise).
	RemovedComponents []int
	// TranscriptRoot, with HasTranscript, carries the shard's signed round
	// transcript root (internal/transcript): the combiner commits it as a
	// leaf of its own tree, which is what lets a client proof span both
	// tiers. Shards without the transcript layer leave it unset.
	TranscriptRoot [32]byte
	HasTranscript  bool
}

// Sentinel errors the drivers classify on. Both are soft at the wire
// layer: a duplicate or stale partial frame is discarded (the engine's
// replay idempotence plus these checks), never an abort.
var (
	ErrDuplicatePartial = errors.New("combine: duplicate partial for shard")
	ErrStalePartial     = errors.New("combine: stale partial (round mismatch)")
	ErrUnknownShard     = errors.New("combine: partial from unknown shard")
	// ErrRoundSealed names a partial arriving after Seal produced the
	// report. Unlike the soft sentinels above it is not a discard-and-move-
	// on condition for the combiner's own state machine — the report is
	// final — but wire drivers still classify it as soft (the late shard
	// already appears in Missing).
	ErrRoundSealed = errors.New("combine: partial after the round was sealed")
)

// Combiner folds shard partials for one round. It is not internally
// locked: the wire driver serializes Add through the engine's apply gate,
// and the in-process driver adds from a single goroutine.
type Combiner struct {
	round  uint64
	expect map[uint64]bool
	order  []uint64 // expected shard ids, ascending
	quorum int
	got    map[uint64]Partial
	// stale records round-mismatched partials by shard (shard → the round
	// the partial claimed), so a stale arrival is named in the RoundReport
	// instead of degrading silently: an operator reading the report can
	// tell "shard 3 is alive but a round behind" from "shard 3 is dead".
	stale map[uint64]uint64
	// sealed is set by Seal; a partial arriving afterwards is a hard
	// ErrRoundSealed (the report is already out — folding it would fork
	// the round's history).
	sealed bool
}

// New builds a combiner for one round over the given shard aggregator ids.
// quorum is the minimum number of contributing shards Seal accepts; 0
// means all of them (a missing shard then still degrades rather than
// aborts only if the caller lowers the quorum).
func New(round uint64, shardIDs []uint64, quorum int) (*Combiner, error) {
	if len(shardIDs) == 0 {
		return nil, fmt.Errorf("combine: no shards")
	}
	expect := make(map[uint64]bool, len(shardIDs))
	for _, id := range shardIDs {
		if expect[id] {
			return nil, fmt.Errorf("combine: duplicate shard id %d", id)
		}
		expect[id] = true
	}
	order := append([]uint64(nil), shardIDs...)
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	if quorum <= 0 || quorum > len(shardIDs) {
		quorum = len(shardIDs)
	}
	return &Combiner{round: round, expect: expect, order: order, quorum: quorum,
		got: make(map[uint64]Partial, len(shardIDs))}, nil
}

// Add ingests one shard partial. Stale, duplicate and unknown-shard
// partials return their sentinel errors without mutating state; geometry
// mismatches (a shard disagreeing on ring width or dimension) are hard
// errors.
func (c *Combiner) Add(p Partial) error {
	if c.sealed {
		return fmt.Errorf("%w: shard %d", ErrRoundSealed, p.Shard)
	}
	if p.Round != c.round {
		if c.stale == nil {
			c.stale = make(map[uint64]uint64)
		}
		c.stale[p.Shard] = p.Round
		return fmt.Errorf("%w %d: got round %d, want %d", ErrStalePartial, p.Shard, p.Round, c.round)
	}
	if !c.expect[p.Shard] {
		return fmt.Errorf("%w %d", ErrUnknownShard, p.Shard)
	}
	if _, dup := c.got[p.Shard]; dup {
		return fmt.Errorf("%w %d", ErrDuplicatePartial, p.Shard)
	}
	if p.Sum.Data == nil {
		return fmt.Errorf("combine: shard %d partial carries no sum", p.Shard)
	}
	for _, q := range c.got {
		if q.Sum.Bits != p.Sum.Bits || q.Sum.Len() != p.Sum.Len() {
			return fmt.Errorf("combine: shard %d partial is %d×%db, shard %d sent %d×%db",
				p.Shard, p.Sum.Len(), p.Sum.Bits, q.Shard, q.Sum.Len(), q.Sum.Bits)
		}
		break // one representative suffices: earlier Adds enforced pairwise agreement
	}
	c.got[p.Shard] = p
	return nil
}

// QuorumMet reports whether enough partials arrived for Seal to succeed.
// It matches the engine's predicate-quorum signature so the wire driver
// can end the collection stage the moment the fold is viable-and-complete.
func (c *Combiner) QuorumMet() bool { return len(c.got) >= c.quorum }

// StaleRounds returns the round-mismatched arrivals recorded so far
// (shard → the round its stale partial claimed).
func (c *Combiner) StaleRounds() map[uint64]uint64 {
	if len(c.stale) == 0 {
		return nil
	}
	out := make(map[uint64]uint64, len(c.stale))
	for k, v := range c.stale {
		out[k] = v
	}
	return out
}

// TranscriptRoots returns the transcript roots the contributing shards'
// partials carried (shard → root) — the leaves of the combiner-tier
// transcript tree. Shards without the transcript layer are absent.
func (c *Combiner) TranscriptRoots() map[uint64][32]byte {
	out := make(map[uint64][32]byte)
	for id, p := range c.got {
		if p.HasTranscript {
			out[id] = p.TranscriptRoot
		}
	}
	return out
}

// RoundReport is the combiner's output: the folded aggregate plus the
// shard- and client-level accounting. A Degraded report is a *successful*
// round over a reduced cohort — the two-level analogue of a client
// dropout.
type RoundReport struct {
	Round uint64
	// Sum is Σ over contributing shards' partials, mod 2^bits.
	Sum ring.Vector
	// Contributing and Missing partition the expected shard set by
	// whether a partial arrived in time; Degraded = len(Missing) > 0.
	Contributing []uint64
	Missing      []uint64
	Degraded     bool
	// Survivors and Dropped merge the contributing shards' client-level
	// accounting (sorted). Clients of missing shards appear in neither:
	// their shard's fate is reported at shard granularity above.
	Survivors []uint64
	Dropped   []uint64
	// RemovedComponents records each contributing shard's XNoise removal
	// accounting (shard id → component indices), so a DP auditor can
	// check the per-shard removals compose to the central contract.
	RemovedComponents map[uint64][]int
	// StaleRounds names the shards whose partials were discarded for a
	// round mismatch (shard → the round the stale partial claimed). Such a
	// shard also appears in Missing unless its real partial arrived later;
	// naming the mismatch here turns a silent degrade into a diagnosable
	// condition (ErrStalePartial's report-level counterpart).
	StaleRounds map[uint64]uint64
}

// Seal folds the collected partials. It fails only below quorum; missing
// shards above it degrade the report instead.
func (c *Combiner) Seal() (*RoundReport, error) {
	if len(c.got) < c.quorum {
		if len(c.stale) > 0 {
			return nil, fmt.Errorf("combine: %d of %d shard partials, quorum %d (%d stale arrivals discarded: %w)",
				len(c.got), len(c.order), c.quorum, len(c.stale), ErrStalePartial)
		}
		return nil, fmt.Errorf("combine: %d of %d shard partials, quorum %d", len(c.got), len(c.order), c.quorum)
	}
	c.sealed = true
	r := &RoundReport{Round: c.round, RemovedComponents: make(map[uint64][]int), StaleRounds: c.StaleRounds()}
	addends := make([]ring.Vector, 0, len(c.got))
	for _, id := range c.order {
		p, ok := c.got[id]
		if !ok {
			r.Missing = append(r.Missing, id)
			continue
		}
		r.Contributing = append(r.Contributing, id)
		addends = append(addends, p.Sum)
		r.Survivors = append(r.Survivors, p.Survivors...)
		r.Dropped = append(r.Dropped, p.Dropped...)
		if len(p.RemovedComponents) > 0 {
			r.RemovedComponents[id] = append([]int(nil), p.RemovedComponents...)
		}
	}
	r.Degraded = len(r.Missing) > 0
	r.Sum = addends[0].Clone()
	if err := r.Sum.AddManyInPlace(addends[1:]); err != nil {
		return nil, err
	}
	sort.Slice(r.Survivors, func(i, j int) bool { return r.Survivors[i] < r.Survivors[j] })
	sort.Slice(r.Dropped, func(i, j int) bool { return r.Dropped[i] < r.Dropped[j] })
	return r, nil
}
