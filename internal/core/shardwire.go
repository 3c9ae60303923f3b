package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/combine"
	"repro/internal/engine"
	"repro/internal/ring"
	"repro/internal/secagg"
	"repro/internal/transcript"
	"repro/internal/transport"
)

// CombinerConfig configures the root combiner of the wire topology: the
// server side of the shard-aggregator ↔ combiner leg. The combiner's
// "clients" are the shard aggregators, connected under their shard ids.
type CombinerConfig struct {
	// Round is the combiner-level round; stale partials (any other
	// round) are discarded, not folded.
	Round uint64
	// ShardIDs lists the shard aggregators expected to contribute.
	ShardIDs []uint64
	// Quorum is the number of partials the fold seals at (0 = all): the
	// partial stage ends at the Quorum-th, and every shard whose partial
	// has not arrived by then is missing from a degraded report.
	Quorum int
	// StageDeadline bounds each collection stage (hello, partial);
	// 0 defaults to engine.DefaultDeadline, mirroring RunWireServer.
	StageDeadline time.Duration
	// AwaitHellos, when set, runs a quorum-bounded presence stage before
	// the partial collection, so operators see dead shards before paying
	// a full shard-round of latency. A fast shard's partial for this
	// round that arrives during it is kept for the partial collection.
	AwaitHellos bool
	// Engine, when non-nil, is an externally owned round engine whose
	// message source outlives this call (multi-round combiner
	// deployments); nil builds one over conn for this round.
	Engine *engine.Engine
	// Transcript, when non-nil, builds the combiner-tier transcript after
	// the report (internal/transcript): each contributing shard's round
	// root — carried on its partial — becomes a leaf of the combiner's
	// tree, the tier root is signed and chained, and every contributing
	// shard receives an engine.TagCombineTranscript frame bundling the
	// commitment with its own inclusion proof, for relay to its clients.
	Transcript *transcript.Recorder
}

// RunCombiner drives the root-combiner side of one two-level round: it
// collects shard partials through the round engine (duplicate senders and
// wrong-tag frames discarded at admission, stale partials swallowed
// here), folds them with quorum semantics, broadcasts the sealed
// RoundReport to the shard aggregators, and returns it.
//
// Degradation over abort: the fold seals as soon as Quorum partials are
// in, without waiting out the stage deadline. A shard that crashed
// mid-round, whose stale frame took its slot, or whose healthy partial
// simply lands after the Quorum-th contributes nothing: Seal folds what is
// there and names the missing shards. An abort happens only when fewer
// than Quorum partials arrive before the deadline.
func RunCombiner(ctx context.Context, cfg CombinerConfig, conn transport.ServerConn) (*combine.RoundReport, error) {
	if cfg.StageDeadline <= 0 {
		cfg.StageDeadline = engine.DefaultDeadline
	}
	comb, err := combine.New(cfg.Round, cfg.ShardIDs, cfg.Quorum)
	if err != nil {
		return nil, err
	}
	roundCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	eng := cfg.Engine
	if eng == nil {
		eng = engine.New(engine.TransportSource(roundCtx, conn))
	}

	if cfg.AwaitHellos {
		quorum := cfg.Quorum
		if quorum <= 0 {
			quorum = len(cfg.ShardIDs)
		}
		hellos := 0
		_, err := eng.Collect(roundCtx, engine.Stage{
			Name: "shard-hello", Tag: engine.TagShardHello, Expect: cfg.ShardIDs,
			QuorumMet: func() bool { return hellos >= quorum }, Deadline: cfg.StageDeadline,
			// Hellos are idempotent presence signals: every admitted one
			// counts, and a stale or misrouted one is never an abort.
			Apply: func(uint64, any) error { hellos++; return nil },
			// A fast shard's partial may overtake a slow shard's hello:
			// keep it for the partial stage below. Only this round's — a
			// stale partial parked here would burn its sender's slot
			// there, shadowing the real one.
			Park: func(m engine.Msg) bool {
				if m.Stage != engine.TagShardPartial {
					return false
				}
				body, _ := m.Body.([]byte)
				round, ok := combine.PartialRound(body)
				return ok && round == cfg.Round
			},
		})
		if err != nil {
			return nil, fmt.Errorf("core: combiner hello stage: %w", err)
		}
	}

	_, err = eng.Collect(roundCtx, engine.Stage{
		Name: "shard-partial", Tag: engine.TagShardPartial, Expect: cfg.ShardIDs,
		QuorumMet: comb.QuorumMet, Deadline: cfg.StageDeadline,
		Decode: func(m engine.Msg) (any, error) {
			p, err := combine.DecodePartial(m.Body.([]byte))
			if err != nil {
				// A malformed partial burns its sender's slot (the engine
				// admitted the frame), degrading that shard — exactly the
				// crash semantics, not an abort.
				return combine.Partial{}, nil
			}
			return p, nil
		},
		Apply: func(from uint64, body any) error {
			p := body.(combine.Partial)
			if p.Shard != from {
				return nil // misattributed frame: discard
			}
			err := comb.Add(p)
			switch {
			case err == nil:
				return nil
			case errors.Is(err, combine.ErrStalePartial),
				errors.Is(err, combine.ErrDuplicatePartial),
				errors.Is(err, combine.ErrUnknownShard),
				errors.Is(err, combine.ErrRoundSealed):
				// Soft: the frame is discarded. If it shadowed the
				// sender's real partial (the engine dedups senders at
				// admission), that shard ends up missing — degraded, not
				// aborted. Stale rounds are no longer silent: the combiner
				// records them and the RoundReport names them
				// (RoundReport.StaleRounds).
				return nil
			default:
				return err // geometry divergence: the fold would be garbage
			}
		},
	})
	if err != nil {
		return nil, fmt.Errorf("core: combiner partial stage: %w", err)
	}

	report, err := comb.Seal()
	if err != nil {
		return nil, err
	}
	payload, err := combine.EncodeReport(report)
	if err != nil {
		return nil, err
	}
	engine.Broadcast(conn, engine.TagCombineReport, payload, cfg.ShardIDs...)
	if cfg.Transcript != nil {
		if err := emitCombineTranscript(cfg.Transcript, cfg.Round, comb, conn); err != nil {
			return nil, fmt.Errorf("core: combiner transcript: %w", err)
		}
	}
	return report, nil
}

// emitCombineTranscript builds, chains, and ships the combiner-tier
// transcript after the report: the contributing shards' roots become the
// tree's leaves and each shard gets one frame bundling the signed
// commitment with its own inclusion proof.
func emitCombineTranscript(rec *transcript.Recorder, round uint64, comb *combine.Combiner, conn transport.ServerConn) error {
	roots := comb.TranscriptRoots()
	shards := make([]transcript.ShardRoot, 0, len(roots))
	for id, root := range roots {
		shards = append(shards, transcript.ShardRoot{Shard: id, Root: root})
	}
	ct, err := rec.BuildCombineRound(round, shards)
	if err != nil {
		return err
	}
	for id := range roots {
		pr, err := ct.ProofFor(id)
		if err != nil {
			continue
		}
		payload, err := transcript.EncodeCombineTier(&transcript.CombineTierMsg{
			Commitment: ct.Commitment, Proof: *pr,
		})
		if err != nil {
			return err
		}
		engine.Broadcast(conn, engine.TagCombineTranscript, payload, id)
	}
	return nil
}

// ShardWireConfig configures one shard aggregator of the wire topology:
// a full engine-backed round over the shard's sub-roster (Server — the
// same WireServerConfig the single-aggregator deployment uses; sessions,
// handshake and churn machinery all apply unchanged) plus the upward leg
// to the combiner.
type ShardWireConfig struct {
	// Shard is this aggregator's id on the combiner connection.
	Shard uint64
	// Round is the combiner-level round the partial is sealed for (the
	// shard-level Server.SecAgg.Round spaces per-chunk sub-rounds and
	// may differ).
	Round uint64
	// Server is the shard-level round: SecAgg.ClientIDs is the
	// sub-roster, and Session/Resume/Divergent drive the shard's own
	// handshake state exactly as in the flat deployment.
	Server WireServerConfig
	// ReportDeadline bounds the wait for the combiner's folded report
	// after the partial is sent (0 = engine.DefaultDeadline).
	ReportDeadline time.Duration
	// RelayCombineTranscript, with Server.Transcript set, makes the shard
	// block (within ReportDeadline) for the combiner-tier transcript
	// frame that follows the report and relay it to every surviving
	// client — completing the two-tier audit path. It requires the
	// combiner to run its own transcript recorder; enabling it against a
	// transcript-less combiner times the round out.
	RelayCombineTranscript bool
}

// RunShardWire runs the shard-aggregator role of one two-level round:
// announce presence to the combiner, drive the full shard round over the
// downstream client connections (RunWireServer — the flat single
// aggregator is exactly this minus the combiner leg), seal the result as
// a combine.Partial, ship it upward, and block for the folded
// RoundReport. The shard's own *secagg.Result is returned alongside so
// the caller keeps its local accounting even if the report never arrives.
func RunShardWire(ctx context.Context, cfg ShardWireConfig, clients transport.ServerConn, up transport.ClientConn) (*combine.RoundReport, *secagg.Result, error) {
	if cfg.ReportDeadline <= 0 {
		cfg.ReportDeadline = engine.DefaultDeadline
	}
	if err := engine.Uplink(up, engine.TagShardHello, combine.EncodeHello(cfg.Round, cfg.Shard)); err != nil {
		return nil, nil, fmt.Errorf("core: shard %d hello: %w", cfg.Shard, err)
	}
	res, err := RunWireServer(ctx, cfg.Server, clients)
	if err != nil {
		return nil, nil, fmt.Errorf("core: shard %d round: %w", cfg.Shard, err)
	}
	partial := combine.Partial{
		Shard: cfg.Shard, Round: cfg.Round,
		Sum:       ring.Vector{Bits: cfg.Server.SecAgg.Bits, Data: res.Sum},
		Survivors: res.Survivors, Dropped: res.Dropped,
		RemovedComponents: res.RemovedComponents,
	}
	if cfg.Server.Transcript != nil {
		// The shard's chain tip is the round root RunWireServer just
		// committed; the combiner folds it into its own tree.
		if tip, ok := cfg.Server.Transcript.Tip(); ok {
			partial.TranscriptRoot = tip
			partial.HasTranscript = true
		}
	}
	payload, err := combine.EncodePartial(partial)
	if err != nil {
		return nil, res, err
	}
	if err := engine.Uplink(up, engine.TagShardPartial, payload); err != nil {
		return nil, res, fmt.Errorf("core: shard %d partial upload: %w", cfg.Shard, err)
	}
	waitCtx, cancel := context.WithTimeout(ctx, cfg.ReportDeadline)
	defer cancel()
	var report *combine.RoundReport
	for report == nil || report.Round != cfg.Round { // a stale round's report is skipped
		report, err = engine.Await(waitCtx, up, engine.TagCombineReport, combine.DecodeReport)
		if err != nil {
			return nil, res, fmt.Errorf("core: shard %d awaiting report: %w", cfg.Shard, err)
		}
	}
	if cfg.RelayCombineTranscript && cfg.Server.Transcript != nil {
		// The combiner-tier frame follows the report on the same ordered
		// connection; relay it verbatim to every surviving client so each
		// can verify its shard's place in the combiner's tree. The copy
		// outlives the received frame, which Await releases.
		tier, err := engine.Await(waitCtx, up, engine.TagCombineTranscript, func(p []byte) ([]byte, error) {
			return bytes.Clone(p), nil
		})
		if err != nil {
			return report, res, fmt.Errorf("core: shard %d awaiting combiner transcript: %w", cfg.Shard, err)
		}
		engine.Broadcast(clients, engine.TagCombineTranscript, tier, res.Survivors...)
	}
	return report, res, nil
}
