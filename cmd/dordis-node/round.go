package main

import (
	"context"
	"crypto/rand"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ring"
	"repro/internal/secagg"
	"repro/internal/transcript"
	"repro/internal/transport"
)

// round is what one round needs beyond the party's secagg.Config.
type round struct {
	deadline time.Duration        // server: per-stage collection deadline
	hs       *core.Handshake      // session mode: what the handshake committed
	eng      *engine.Engine       // server: the connection's engine
	rec      *transcript.Recorder // server: -transcript
	up       *uplink              // shard: the leg to the combiner
	aud      *transcript.Auditor  // client: -verify-transcript
	caud     *transcript.CombineAuditor
}

// uplink is a shard aggregator's upward leg: with one, a server round ends
// by folding its result into the combiner and reports the combiner's fold.
type uplink struct {
	conn     transport.ClientConn
	shard    uint64        // this aggregator's id on the combiner connection
	deadline time.Duration // bound for the folded report
}

// config pins what the handshake committed for this round onto cfg, and
// unpacks its resume decision (a single round never resumes).
func (r round) config(cfg secagg.Config) (c secagg.Config, resume bool, divergent []uint64) {
	if r.hs == nil {
		return cfg, false, nil
	}
	cfg.Round, cfg.KeyRatchet, cfg.NoiseEpoch = r.hs.Round, r.hs.Ratchet, r.hs.NoiseEpoch
	return cfg, r.hs.Resume, r.hs.Divergent
}

// serverRound runs one server round on conn and returns the printable
// outcome; sess is nil outside session mode.
func serverRound(ctx context.Context, conn transport.ServerConn, cfg secagg.Config, sess *secagg.ServerSession, r round) (string, error) {
	wc := core.WireServerConfig{StageDeadline: r.deadline, Engine: r.eng, Transcript: r.rec, Session: sess}
	wc.SecAgg, wc.Resume, wc.Divergent = r.config(cfg)
	if r.up == nil {
		res, err := core.RunWireServer(ctx, wc, conn)
		if err != nil {
			return "", err
		}
		return secAggReport(cfg, res), nil
	}
	// A shard runs the complete flat round — session, handshake outcome and
	// transcript included — and ships the result upward.
	report, res, err := core.RunShardWire(ctx, core.ShardWireConfig{
		Shard: r.up.shard, Round: wc.SecAgg.Round, Server: wc,
		ReportDeadline: r.up.deadline, RelayCombineTranscript: r.rec != nil,
	}, conn, r.up.conn)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%d survivors, partial folded; combiner %s", len(res.Survivors), foldLine(report)), nil
}

// clientRound runs one round for client id contributing the constant
// vector of value; sess is nil outside session mode. The outcome is empty
// when the client got no result.
func clientRound(ctx context.Context, conn transport.ClientConn, cfg secagg.Config, id, value uint64, sess *secagg.Session, r round) (string, error) {
	wc := core.WireClientConfig{
		ID: id, Input: constInput(cfg, value), DropBefore: core.NoDrop, Rand: rand.Reader,
		Session: sess, Transcript: r.aud, CombineTranscript: r.caud,
	}
	wc.SecAgg, wc.Resume, wc.Divergent = r.config(cfg)
	res, err := core.RunWireClient(ctx, wc, conn)
	if err != nil || res == nil {
		return "", err
	}
	return fmt.Sprintf("complete, %d survivors", len(res.Survivors)), nil
}

func constInput(cfg secagg.Config, value uint64) ring.Vector {
	input := ring.NewVector(cfg.Bits, cfg.Dim)
	for i := range input.Data {
		input.Data[i] = value & input.Mask()
	}
	return input
}

func secAggReport(cfg secagg.Config, res *secagg.Result) string {
	centered := ring.Vector{Bits: cfg.Bits, Data: res.Sum}.Centered()
	var mean float64
	for _, v := range centered {
		mean += float64(v)
	}
	mean /= float64(len(centered))
	report := fmt.Sprintf("round complete: survivors=%v dropped=%v\n", res.Survivors, res.Dropped)
	report += fmt.Sprintf("aggregate per-coordinate mean: %.2f (first 8: %v)\n", mean, centered[:min(8, len(centered))])
	if len(res.RemovedComponents) > 0 {
		report += fmt.Sprintf("XNoise removed components: %v\n", res.RemovedComponents)
	}
	return report
}
