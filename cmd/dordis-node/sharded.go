package main

// The sharded (multi-aggregator) topology. A shard aggregator is the
// server role plus -combiner-addr: the same server loop over its
// sub-roster — same wire protocol, engine and round body, and with
// -rounds > 1 the same per-round handshake and sessions — whose every
// round ends by folding the masked shard partial into a root combiner
// over one upward TCP leg (PROTOCOL.md §combiner). Start the combiner,
// then one shard aggregator per shard, then the clients:
//
//	dordis-node -role combiner -listen :7800 -shards 4 -shard-quorum 3
//	dordis-node -role shard -shard-id 0 -shards 4 -listen :7700 \
//	    -combiner-addr host:7800 -clients 1,...,100 -threshold 3
//	dordis-node -role client -connect shard0:7700 -id 1 -shards 4 -clients 1,...,100
//
// Shard aggregators and clients both derive the same contiguous shard
// plan from (-clients, -shards), so a client only needs the address of
// the shard that owns its id. With -tolerance > 0 each shard draws
// independent Skellam noise at mu/S — the XNoise decomposition that
// makes S shards compose to the central -mu (see package combine).
//
// Or run the whole topology in one process over loopback TCP:
//
//	dordis-node -role shardtest -shards 4 -clients 1,...,20
//	dordis-node -role shardtest -shards 4 -kill-shard 3 -shard-quorum 3
//
// -kill-shard crashes one shard aggregator mid-round; with a quorum the
// round completes degraded (the report names the missing shard) instead
// of aborting — the combiner's core guarantee.

import (
	"context"
	"fmt"

	"repro/internal/combine"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/secagg"
	"repro/internal/transport"
	"repro/internal/xnoise"
)

// shardRoster derives the sub-roster this party aggregates in — a shard
// aggregator's own, a client's the one owning its id — from the contiguous
// plan every party derives from (-clients, -shards).
func (c *config) shardRoster() ([]uint64, error) {
	plan, err := core.NewShardPlan(c.ids, c.shards)
	if err != nil {
		return nil, err
	}
	shard := int(c.shardID)
	if c.role == "client" {
		if shard = plan.ShardOf(c.id); shard < 0 {
			return nil, fmt.Errorf("client %d not in the sampled set", c.id)
		}
	} else if c.shardID >= uint64(c.shards) {
		return nil, fmt.Errorf("shard id %d out of range [0, %d)", c.shardID, c.shards)
	}
	return plan.Rosters[shard], nil
}

// secAggConfig builds the round config of one aggregator over roster: the
// flat server (shards = 1) or one shard of S, whose threshold and
// tolerance are per shard and whose noise target is the split mu/S.
func (c *config) secAggConfig(roster []uint64, shards int) (secagg.Config, error) {
	cfg := secagg.Config{
		Round: 1, ClientIDs: roster, Threshold: c.threshold, Bits: 20, Dim: c.dim,
		NoiseEpoch: c.noiseEpoch,
	}
	if c.tolerance > 0 {
		cfg.XNoise = &xnoise.Plan{
			NumClients:       len(roster),
			DropoutTolerance: c.tolerance,
			Threshold:        c.threshold,
			TargetVariance:   c.mu / float64(shards),
		}
	}
	err := cfg.Validate()
	if err != nil && shards > 1 {
		err = fmt.Errorf("shard config (threshold and tolerance apply per shard): %w", err)
	}
	return cfg, err
}

// combiner is the root of the two-level topology: it listens for the
// shard aggregators and folds their partials, one core.RunCombiner per
// round. srv, when non-nil, is an already open listener to serve on.
func (n node) combiner(cfg config, srv *transport.TCPServer) error {
	srv, err := cfg.listener(srv)
	if err != nil {
		return err
	}
	defer srv.Close()
	shardIDs := make([]uint64, cfg.shards)
	for i := range shardIDs {
		shardIDs[i] = uint64(i)
	}
	n.printf("combiner listening on %s, %d shard aggregators (quorum %d)\n",
		srv.Addr(), cfg.shards, cfg.shardQuorum)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// One engine spans every round on this connection, like the server
	// loop's: shard partials for round r+1 must not race the round-r report.
	eng := engine.New(engine.TransportSource(ctx, srv))
	rec := cfg.recorder()
	quorum := cfg.shardQuorum
	if quorum <= 0 {
		quorum = cfg.shards
	}
	// Bring-up waits for a quorum of shard dials; from then on the live
	// connections are reused and each round's hello stage does the waiting.
	waitForClients(srv, quorum, 0)
	for r := 1; r <= cfg.rounds; r++ {
		report, err := core.RunCombiner(ctx, core.CombinerConfig{
			Round: uint64(r), ShardIDs: shardIDs, Quorum: cfg.shardQuorum,
			StageDeadline: cfg.combineDeadline, AwaitHellos: true, Engine: eng,
			Transcript: rec,
		}, srv)
		if err != nil {
			return err
		}
		n.printf("round %d: %s", r, foldLine(report))
		n.printRecorderTip(rec)
	}
	return nil
}

// foldLine is the printable outcome of one combiner fold.
func foldLine(report *combine.RoundReport) string {
	state := "complete"
	if report.Degraded {
		state = fmt.Sprintf("DEGRADED (missing shards %v)", report.Missing)
	}
	centered := report.Sum.Centered()
	var mean float64
	for _, v := range centered {
		mean += float64(v)
	}
	mean /= float64(len(centered))
	return fmt.Sprintf("%s: shards=%v survivors=%d dropped=%d, folded per-coordinate mean %.2f\n",
		state, report.Contributing, len(report.Survivors), len(report.Dropped), mean)
}

// crashOnMasked is -kill-shard's crash: the shard dies the moment the first
// masked input reaches it — presence announced, keys shared, the round
// under way, whatever its size — the worst-case loss for the combiner.
type crashOnMasked struct {
	transport.ServerConn
	kill context.CancelFunc
}

func (c crashOnMasked) Recv(ctx context.Context) (transport.Frame, error) {
	f, err := c.ServerConn.Recv(ctx)
	if err == nil && f.Stage == secagg.TagMasked {
		c.kill()
	}
	return f, err
}
