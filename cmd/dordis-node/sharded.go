package main

// Sharded (multi-aggregator) deployment roles. The two-level topology
// runs each shard as a full dordis aggregation service over its
// sub-roster — same wire protocol, same engine, same round body the flat
// server role uses — plus one upward TCP leg to a root combiner that
// folds the masked shard partials (PROTOCOL.md §combiner). Start the
// combiner, then one shard aggregator per shard, then the clients:
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
	"crypto/rand"
	"fmt"
	"sync"
	"time"

	"repro/internal/combine"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/secagg"
	"repro/internal/sig"
	"repro/internal/transcript"
	"repro/internal/transport"
	"repro/internal/xnoise"
)

// shardedFlags carries the sharded-topology knobs out of main.
type shardedFlags struct {
	shards          int
	shardID         uint64
	combinerAddr    string
	shardQuorum     int
	combineDeadline time.Duration
	killShard       int
}

// shardRoster derives the sub-roster the given shard aggregates — the
// same contiguous plan every party derives from (-clients, -shards).
func shardRoster(ids []uint64, shards int, shard uint64) ([]uint64, error) {
	plan, err := core.NewShardPlan(ids, shards)
	if err != nil {
		return nil, err
	}
	if shard >= uint64(shards) {
		return nil, fmt.Errorf("shard id %d out of range [0, %d)", shard, shards)
	}
	return plan.Rosters[shard], nil
}

// shardRosterOf narrows the full roster to the sub-roster owning client
// id — the client-side half of the shared plan derivation.
func shardRosterOf(ids []uint64, shards int, id uint64) ([]uint64, error) {
	plan, err := core.NewShardPlan(ids, shards)
	if err != nil {
		return nil, err
	}
	s := plan.ShardOf(id)
	if s < 0 {
		return nil, fmt.Errorf("client %d not in the sampled set", id)
	}
	return plan.Rosters[s], nil
}

// secAggConfig builds the round config of one aggregator over roster: the
// flat server (shards = 1) or one shard of S, whose threshold and
// tolerance are per shard and whose noise target is the split mu/S.
func secAggConfig(roster []uint64, shards, threshold, dim, tolerance int,
	mu float64, noiseEpoch uint64) (secagg.Config, error) {

	cfg := secagg.Config{
		Round: 1, ClientIDs: roster, Threshold: threshold, Bits: 20, Dim: dim,
		NoiseEpoch: noiseEpoch,
	}
	if tolerance > 0 {
		cfg.XNoise = &xnoise.Plan{
			NumClients:       len(roster),
			DropoutTolerance: tolerance,
			Threshold:        threshold,
			TargetVariance:   mu / float64(shards),
		}
	}
	err := cfg.Validate()
	if err != nil && shards > 1 {
		err = fmt.Errorf("shard config (threshold and tolerance apply per shard): %w", err)
	}
	return cfg, err
}

func (n node) runCombinerRole(sf shardedFlags, listen string, rounds int, rec *transcript.Recorder) error {
	srv, err := transport.ListenTCP(listen)
	if err != nil {
		return err
	}
	defer srv.Close()
	shardIDs := make([]uint64, sf.shards)
	for i := range shardIDs {
		shardIDs[i] = uint64(i)
	}
	n.printf("combiner listening on %s for %d shard aggregators (quorum %d)\n",
		srv.Addr(), sf.shards, sf.shardQuorum)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// One engine spans every round on this connection, like the session-mode
	// server: shard partials for round r+1 must not race the round-r report.
	eng := engine.New(engine.TransportSource(ctx, srv))
	quorum := sf.shardQuorum
	if quorum <= 0 {
		quorum = sf.shards
	}
	for r := 1; r <= rounds; r++ {
		// Round 1 waits for a quorum of shard dials (bring-up); later rounds
		// reuse the live connections and the hello stage does the waiting.
		if r == 1 {
			waitForClients(srv, quorum, 0)
		}
		report, err := core.RunCombiner(ctx, core.CombinerConfig{
			Round: uint64(r), ShardIDs: shardIDs, Quorum: sf.shardQuorum,
			StageDeadline: sf.combineDeadline, AwaitHellos: true, Engine: eng,
			Transcript: rec,
		}, srv)
		if err != nil {
			return err
		}
		n.printf("round %d: ", r)
		n.printReport(report)
		n.printRecorderTip(rec)
	}
	return nil
}

func (n node) printReport(report *combine.RoundReport) {
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
	n.printf("%s: shards=%v survivors=%d dropped=%d, folded per-coordinate mean %.2f\n",
		state, report.Contributing, len(report.Survivors), len(report.Dropped), mean)
}

func (n node) runShardRole(cfg secagg.Config, sf shardedFlags, listen string, rounds int,
	deadline time.Duration, rec *transcript.Recorder) error {
	srv, err := transport.ListenTCP(listen)
	if err != nil {
		return err
	}
	defer srv.Close()
	ctx := context.Background()
	up, err := sessionDial(ctx, sf.combinerAddr, sf.shardID)
	if err != nil {
		return err
	}
	defer up.Close()
	n.printf("shard %d listening on %s for %d clients, combiner at %s\n",
		sf.shardID, srv.Addr(), len(cfg.ClientIDs), sf.combinerAddr)
	for r := 1; r <= rounds; r++ {
		bound := deadline
		if r == 1 {
			bound = 0
		}
		waitForClients(srv, len(cfg.ClientIDs), bound)
		rcfg := cfg
		rcfg.Round = uint64(r)
		report, res, err := core.RunShardWire(ctx, core.ShardWireConfig{
			Shard: sf.shardID, Round: uint64(r),
			Server:                 core.WireServerConfig{SecAgg: rcfg, StageDeadline: deadline, Transcript: rec},
			ReportDeadline:         sf.combineDeadline,
			RelayCombineTranscript: rec != nil,
		}, srv, up)
		if err != nil {
			return err
		}
		n.printf("shard %d round %d: %d survivors, partial folded; combiner ", sf.shardID, r, len(res.Survivors))
		n.printReport(report)
		n.printRecorderTip(rec)
	}
	return nil
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

// shardSelfTest runs the whole two-level topology in one process over
// loopback TCP: a combiner, -shards shard aggregators (each a real TCP
// server), and every client. killShard >= 0 cancels that shard's context
// mid-round; with a quorum below -shards the round must complete degraded.
// transcriptOn wires the verifiable-transcript layer through both tiers
// with throwaway signing keys: every client audits its shard's signed
// root and the shard root's inclusion in the combiner's tree.
func (n node) shardSelfTest(ids []uint64, sf shardedFlags, threshold, dim, tolerance int,
	mu float64, noiseEpoch uint64, deadline time.Duration, transcriptOn bool) error {

	plan, err := core.NewShardPlan(ids, sf.shards)
	if err != nil {
		return err
	}
	// Every shard's config is validated up front, so a bad flag fails the
	// command instead of one goroutine.
	shardCfgs := make([]secagg.Config, sf.shards)
	for s := range shardCfgs {
		if shardCfgs[s], err = secAggConfig(plan.Rosters[s], sf.shards, threshold, dim, tolerance, mu, noiseEpoch); err != nil {
			return err
		}
	}
	comb, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer comb.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var combRec *transcript.Recorder
	var combPub []byte
	if transcriptOn {
		combSigner, err := sig.NewSigner(rand.Reader)
		if err != nil {
			return err
		}
		combRec = transcript.NewRecorder(combSigner)
		combPub = combSigner.Public()
	}
	var auditMu sync.Mutex
	var tierOne, tierTwo, audited int

	shardIDs := make([]uint64, sf.shards)
	for i := range shardIDs {
		shardIDs[i] = uint64(i)
	}
	// ready holds every shard at the start line until all of them have
	// their clients connected. Shards announce themselves to the combiner
	// as they start their round, and the combiner's hello stage discards a
	// partial that overtakes another shard's hello — which a small round
	// manages when the shards start a client-poll interval apart.
	var ready sync.WaitGroup
	ready.Add(sf.shards)
	var wg sync.WaitGroup
	for s := 0; s < sf.shards; s++ {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			arrive := sync.OnceFunc(ready.Done)
			defer arrive() // a shard that failed to set up must not hold the others
			sub, scfg := plan.Rosters[s], shardCfgs[s]
			srv, err := transport.ListenTCP("127.0.0.1:0")
			if err != nil {
				n.warnf("shard %d listen: %v", s, err)
				return
			}
			defer srv.Close()
			up, err := transport.DialTCP(comb.Addr(), uint64(s))
			if err != nil {
				n.warnf("shard %d dial combiner: %v", s, err)
				return
			}
			defer up.Close()
			var shardRec *transcript.Recorder
			var shardPub []byte
			if transcriptOn {
				shardSigner, err := sig.NewSigner(rand.Reader)
				if err != nil {
					n.warnf("shard %d signer: %v", s, err)
					return
				}
				shardRec = transcript.NewRecorder(shardSigner)
				shardPub = shardSigner.Public()
			}
			shardCtx, clientConn := ctx, transport.ServerConn(srv)
			if s == sf.killShard {
				var kill context.CancelFunc
				shardCtx, kill = context.WithCancel(ctx)
				defer kill()
				clientConn = crashOnMasked{srv, kill}
			}
			var cwg sync.WaitGroup
			for _, id := range sub {
				id := id
				cwg.Add(1)
				go func() {
					defer cwg.Done()
					conn, err := transport.DialTCP(srv.Addr(), id)
					if err != nil {
						n.warnf("client %d dial: %v", id, err)
						return
					}
					defer conn.Close()
					aud, caud := clientAuditors(transcriptOn, shardPub, combPub, true)
					// A killed shard strands its clients mid-round; their
					// errors are expected collateral, not failures.
					if _, err := core.RunWireClient(shardCtx, core.WireClientConfig{
						SecAgg: scfg, ID: id, Input: constInput(scfg, 1),
						DropBefore: core.NoDrop, Rand: rand.Reader,
						Transcript: aud, CombineTranscript: caud,
					}, conn); err != nil && s != sf.killShard {
						n.warnf("client %d: %v", id, err)
					}
					if aud != nil {
						auditMu.Lock()
						audited++
						if len(aud.History()) > 0 {
							tierOne++
						}
						if len(caud.History()) > 0 {
							tierTwo++
						}
						auditMu.Unlock()
					}
				}()
			}
			waitForClients(srv, len(sub), 0)
			arrive()
			ready.Wait()
			_, _, err = core.RunShardWire(shardCtx, core.ShardWireConfig{
				Shard: uint64(s), Round: 1,
				Server:                 core.WireServerConfig{SecAgg: scfg, StageDeadline: deadline, Transcript: shardRec},
				ReportDeadline:         sf.combineDeadline,
				RelayCombineTranscript: shardRec != nil,
			}, clientConn, up)
			if err != nil && s != sf.killShard {
				n.warnf("shard %d: %v", s, err)
			}
			cwg.Wait()
		}()
	}

	quorum := sf.shardQuorum
	if quorum <= 0 {
		quorum = sf.shards
	}
	waitForClients(comb, quorum, 0)
	report, err := core.RunCombiner(ctx, core.CombinerConfig{
		Round: 1, ShardIDs: shardIDs, Quorum: sf.shardQuorum,
		StageDeadline: sf.combineDeadline, AwaitHellos: true,
		Transcript: combRec,
	}, comb)
	if err != nil {
		return err
	}
	wg.Wait() // shards drain the report broadcast before teardown
	n.printReport(report)
	// Every client fed a constant 1, so the folded sum per coordinate is
	// the survivor count (plus XNoise when -tolerance > 0).
	want := len(report.Survivors)
	n.printf("expected per-coordinate mean ~%d over %d contributing shard(s)\n",
		want, len(report.Contributing))
	if transcriptOn {
		n.printf("transcripts: %d/%d clients verified their shard tier, %d the combiner tier, ",
			tierOne, audited, tierTwo)
		n.printRecorderTip(combRec)
	}
	return nil
}
