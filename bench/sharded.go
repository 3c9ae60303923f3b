package main

import (
	"context"
	"crypto/rand"
	"fmt"

	"repro/internal/combine"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ring"
	"repro/internal/secagg"
	"repro/internal/sig"
	"repro/internal/transcript"
	"repro/internal/transport"
	"repro/internal/xnoise"
)

// shardedMem is the two-level topology on in-memory networks: S shard
// aggregators each run a full wire round over their sub-roster and ship a
// masked partial to a root combiner. Keys are cold every round (no
// sessions), XNoise runs inside the protocol at target/S per shard, and
// both tiers keep signed transcripts that every client audits. With
// dim = 1024 a round is hundreds of small frames: the control plane.
type shardedMem struct {
	dim        int
	ids        []uint64
	plan       *core.ShardPlan
	cfgs       []secagg.Config // per shard
	inputs     map[uint64]ring.Vector
	wantSum    ring.Vector
	wantVar    float64
	tr         *tracer
	ctx        context.Context
	cancel     context.CancelFunc
	shardConns []transport.ServerConn // client-facing endpoint of each shard
	shardEngs  []*engine.Engine
	shardRecs  []*transcript.Recorder
	ups        []transport.ClientConn // each shard's leg to the combiner
	combConn   transport.ServerConn
	combEng    *engine.Engine
	combRec    *transcript.Recorder
	clients    map[uint64]*shardClient
	rounds     int // rounds in which every party returned without error

	lastReport *combine.RoundReport
}

type shardClient struct {
	shard int
	conn  transport.ClientConn
	aud   *transcript.Auditor
	caud  *transcript.CombineAuditor
}

// memBuffer is the per-direction channel depth of each in-memory network:
// above the ≤ 16 frames a stage can have in flight on one network, so a
// send never blocks on the network itself.
const memBuffer = 256

// shardedConfigs is the shard plan of sharded_mem and each shard's round
// configuration: S = 4 shards of 16 clients, threshold 12, XNoise with
// tolerance 4 at the central target divided by S.
func shardedConfigs(small bool) ([]uint64, *core.ShardPlan, []secagg.Config, error) {
	const shards, perShard, bits, threshold, tolerance = 4, 16, 20, 12, 4
	dim := 1024
	if small {
		dim = 256
	}
	ids := clientIDs(shards * perShard)
	plan, err := core.NewShardPlan(ids, shards)
	if err != nil {
		return nil, nil, nil, err
	}
	var cfgs []secagg.Config
	for _, sub := range plan.Rosters {
		cfg := secagg.Config{ClientIDs: sub, Threshold: threshold, Bits: bits, Dim: dim,
			XNoise: &xnoise.Plan{NumClients: len(sub), DropoutTolerance: tolerance,
				Threshold: threshold, TargetVariance: targetMu / shards}}
		if err := cfg.Validate(); err != nil {
			return nil, nil, nil, err
		}
		cfgs = append(cfgs, cfg)
	}
	return ids, plan, cfgs, nil
}

func openShardedMem(seed uint64, small bool, tr *tracer) (workload, error) {
	w := &shardedMem{tr: tr}
	var err error
	if w.ids, w.plan, w.cfgs, err = shardedConfigs(small); err != nil {
		return nil, err
	}
	bits := w.cfgs[0].Bits
	w.dim = w.cfgs[0].Dim
	w.inputs = ringInputs(seed, w.ids, bits, w.dim)
	w.wantSum = ringSum(w.inputs, w.ids, bits, w.dim)
	w.ctx, w.cancel = context.WithCancel(context.Background())

	combSigner, err := sig.NewSigner(rand.Reader)
	if err != nil {
		return nil, err
	}
	w.combRec = transcript.NewRecorder(combSigner)
	combNet := transport.NewMemoryNetwork(memBuffer)
	w.combConn = tr.wrapServer("combiner", combNet.Server())
	w.combEng = engine.New(engine.TransportSource(w.ctx, w.combConn))

	w.clients = make(map[uint64]*shardClient, len(w.ids))
	for s, sub := range w.plan.Rosters {
		// Independent per-shard noise at target/S composes to the central
		// target (package combine).
		w.wantVar += w.cfgs[s].XNoise.AchievedVariance(0)

		tier := fmt.Sprintf("shard%d", s)
		net := transport.NewMemoryNetwork(memBuffer)
		conn := tr.wrapServer(tier, net.Server())
		w.shardConns = append(w.shardConns, conn)
		w.shardEngs = append(w.shardEngs, engine.New(engine.TransportSource(w.ctx, conn)))
		signer, err := sig.NewSigner(rand.Reader)
		if err != nil {
			return nil, err
		}
		w.shardRecs = append(w.shardRecs, transcript.NewRecorder(signer))
		up, err := combNet.Connect(uint64(s))
		if err != nil {
			return nil, err
		}
		w.ups = append(w.ups, tr.wrapClient("combiner", uint64(s), up))
		for _, id := range sub {
			c, err := net.Connect(id)
			if err != nil {
				return nil, err
			}
			w.clients[id] = &shardClient{shard: s, conn: tr.wrapClient(tier, id, c),
				aud:  transcript.NewAuditor(signer.Public()),
				caud: transcript.NewCombineAuditor(combSigner.Public())}
		}
	}
	return w, nil
}

func (w *shardedMem) prepare(int) error { return nil }

func (w *shardedMem) run(i int) error {
	round := uint64(i)
	w.lastReport = nil
	p := newParties(w.ctx)
	w.tr.beginRound(i)
	for id, c := range w.clients {
		p.spawn(func(ctx context.Context) error {
			cfg := w.cfgs[c.shard]
			cfg.Round = round
			_, err := core.RunWireClient(ctx, core.WireClientConfig{
				SecAgg: cfg, ID: id, Input: w.inputs[id], DropBefore: core.NoDrop, Rand: rand.Reader,
				Transcript: c.aud, CombineTranscript: c.caud, TranscriptDeadline: stageDeadline,
			}, c.conn)
			if err != nil {
				return fmt.Errorf("client %d: %w", id, err)
			}
			return nil
		})
	}
	for s := range w.cfgs {
		p.spawn(func(ctx context.Context) error {
			cfg := w.cfgs[s]
			cfg.Round = round
			_, _, err := core.RunShardWire(ctx, core.ShardWireConfig{
				Shard: uint64(s), Round: round,
				Server: core.WireServerConfig{SecAgg: cfg, StageDeadline: stageDeadline,
					Engine: w.shardEngs[s], Transcript: w.shardRecs[s]},
				ReportDeadline:         stageDeadline,
				RelayCombineTranscript: true,
			}, w.shardConns[s], w.ups[s])
			return err
		})
	}
	p.do(func(ctx context.Context) (err error) {
		w.lastReport, err = core.RunCombiner(ctx, core.CombinerConfig{
			Round: round, ShardIDs: w.plan.ShardIDs(), StageDeadline: stageDeadline,
			AwaitHellos: true, Engine: w.combEng, Transcript: w.combRec,
		}, w.combConn)
		if err != nil {
			return fmt.Errorf("combiner: %w", err)
		}
		return nil
	})
	err := p.wait()
	w.tr.endRound()
	if err == nil {
		w.rounds++
	}
	return err
}

func (w *shardedMem) check() (roundCheck, error) {
	rep := w.lastReport
	if rep == nil {
		return roundCheck{}, fmt.Errorf("oracle: no report")
	}
	if rep.Degraded || len(rep.Missing) > 0 {
		return roundCheck{}, fmt.Errorf("oracle: degraded report, missing shards %v", rep.Missing)
	}
	if !sameIDs(rep.Survivors, w.ids) || len(rep.Dropped) > 0 {
		return roundCheck{}, fmt.Errorf("oracle: partition %v / %v does not match the schedule",
			rep.Survivors, rep.Dropped)
	}
	residual, err := ringResidual(rep.Sum, w.wantSum)
	if err != nil {
		return roundCheck{}, err
	}
	mean, variance := residualStats(residual)
	return roundCheck{noiseVarRatio: variance / w.wantVar}, checkNoise(mean, variance, w.wantVar, len(residual))
}

func (w *shardedMem) info() workloadInfo {
	return workloadInfo{clients: len(w.ids), survivors: len(w.ids), dim: w.dim}
}

// close also settles the audit. A client's RunWireClient returns nil only
// after both tiers verified, so a completed round implies two records per
// client; the histories are still counted, but once, here — History
// copies the whole chain, and asking 64 clients every round would charge
// the oracle's allocations to the round.
func (w *shardedMem) close() error {
	w.cancel()
	var err error
	for id, c := range w.clients {
		c.conn.Close()
		if a, ca := len(c.aud.History()), len(c.caud.History()); a < w.rounds || ca < w.rounds {
			err = fmt.Errorf("oracle: client %d recorded %d shard-tier and %d combiner-tier audits in %d rounds",
				id, a, ca, w.rounds)
		}
	}
	return err
}
