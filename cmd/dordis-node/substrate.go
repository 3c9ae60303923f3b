package main

import (
	"context"
	"crypto/rand"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/field"
	"repro/internal/lightsecagg"
	"repro/internal/ring"
	"repro/internal/secagg"
	"repro/internal/transcript"
	"repro/internal/transport"
)

// substrate is everything the node roles need to know about the
// aggregation substrate -protocol selected: how to make and restore a
// session, how to run one server or client round on a connection, and how
// to print the outcome. Each role is written once against it.
type substrate struct {
	protocol core.Protocol
	ids      []uint64
	// noiseEpoch is what a session-mode server announces in its offers.
	noiseEpoch uint64
	// record prefixes the client's session-store record name.
	record string

	newSession       func() (clientSession, error)
	unmarshalSession func([]byte) (clientSession, error)
	newServerSession func() core.ServerSessionState
	// serverRound runs one round and returns the printable outcome; sess is
	// nil outside session mode.
	serverRound func(ctx context.Context, conn transport.ServerConn, sess core.ServerSessionState, r round) (string, error)
	// clientRound runs one round for client id contributing the constant
	// vector of value. The outcome is empty when the client got no result.
	clientRound func(ctx context.Context, conn transport.ClientConn, id, value uint64, sess clientSession, r round) (string, error)
}

// clientSession is a client's persistable session on either substrate.
type clientSession interface {
	core.ClientSessionState
	MarshalBinary() ([]byte, error)
}

// round is what one round needs beyond the substrate's own configuration.
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

// resume unpacks the handshake's decision (a single round never resumes).
func (r round) resume() (bool, []uint64) {
	if r.hs == nil {
		return false, nil
	}
	return r.hs.Resume, r.hs.Divergent
}

func secAggSubstrate(cfg secagg.Config) substrate {
	// roundConfig pins what the handshake committed for this round.
	roundConfig := func(r round) secagg.Config {
		c := cfg
		if r.hs != nil {
			c.Round, c.KeyRatchet, c.NoiseEpoch = r.hs.Round, r.hs.Ratchet, r.hs.NoiseEpoch
		}
		return c
	}
	return substrate{
		protocol: core.ProtocolSecAgg, ids: cfg.ClientIDs, noiseEpoch: cfg.NoiseEpoch, record: "client",
		newSession: func() (clientSession, error) { return secagg.NewSession(rand.Reader) },
		unmarshalSession: func(blob []byte) (clientSession, error) {
			return secagg.UnmarshalSession(blob)
		},
		newServerSession: func() core.ServerSessionState { return secagg.NewServerSession() },
		serverRound: func(ctx context.Context, conn transport.ServerConn, sess core.ServerSessionState, r round) (string, error) {
			wc := core.WireServerConfig{
				SecAgg: roundConfig(r), StageDeadline: r.deadline, Engine: r.eng, Transcript: r.rec,
			}
			wc.Resume, wc.Divergent = r.resume()
			if sess != nil {
				wc.Session = sess.(*secagg.ServerSession)
			}
			if r.up == nil {
				res, err := core.RunWireServer(ctx, wc, conn)
				if err != nil {
					return "", err
				}
				return secAggReport(cfg, res), nil
			}
			// A shard runs the complete flat round — session, handshake
			// outcome and transcript included — and ships the result upward.
			report, res, err := core.RunShardWire(ctx, core.ShardWireConfig{
				Shard: r.up.shard, Round: wc.SecAgg.Round, Server: wc,
				ReportDeadline: r.up.deadline, RelayCombineTranscript: r.rec != nil,
			}, conn, r.up.conn)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%d survivors, partial folded; combiner %s", len(res.Survivors), foldLine(report)), nil
		},
		clientRound: func(ctx context.Context, conn transport.ClientConn, id, value uint64, sess clientSession, r round) (string, error) {
			c := roundConfig(r)
			wc := core.WireClientConfig{
				SecAgg: c, ID: id, Input: constInput(c, value), DropBefore: core.NoDrop, Rand: rand.Reader,
				Transcript: r.aud, CombineTranscript: r.caud,
			}
			wc.Resume, wc.Divergent = r.resume()
			if sess != nil {
				wc.Session = sess.(*secagg.Session)
			}
			res, err := core.RunWireClient(ctx, wc, conn)
			if err != nil || res == nil {
				return "", err
			}
			return fmt.Sprintf("complete, %d survivors", len(res.Survivors)), nil
		},
	}
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

func lightSecAggSubstrate(cfg lightsecagg.Config) substrate {
	roundConfig := func(r round) lightsecagg.Config {
		c := cfg
		if r.hs != nil {
			c.Round = r.hs.Round
		}
		return c
	}
	return substrate{
		protocol: core.ProtocolLightSecAgg, ids: cfg.ClientIDs, record: "lsa-client",
		newSession: func() (clientSession, error) { return lightsecagg.NewSession(rand.Reader) },
		unmarshalSession: func(blob []byte) (clientSession, error) {
			return lightsecagg.UnmarshalSession(blob)
		},
		newServerSession: func() core.ServerSessionState { return lightsecagg.NewServerSession() },
		serverRound: func(ctx context.Context, conn transport.ServerConn, sess core.ServerSessionState, r round) (string, error) {
			wc := lightsecagg.WireServerConfig{Config: roundConfig(r), StageDeadline: r.deadline, Engine: r.eng}
			wc.Resume, wc.Divergent = r.resume()
			if sess != nil {
				wc.Session = sess.(*lightsecagg.ServerSession)
			}
			sum, err := lightsecagg.RunWireServer(ctx, wc, conn)
			if err != nil {
				return "", err
			}
			return lightSecAggReport(sum), nil
		},
		clientRound: func(ctx context.Context, conn transport.ClientConn, id, value uint64, sess clientSession, r round) (string, error) {
			input := make([]field.Element, cfg.Dim)
			for i := range input {
				input[i] = lightsecagg.Lift(int64(value))
			}
			wc := lightsecagg.WireClientConfig{Config: roundConfig(r), ID: id, Input: input, Rand: rand.Reader}
			wc.Resume, wc.Divergent = r.resume()
			if sess != nil {
				wc.Session = sess.(*lightsecagg.Session)
			}
			sum, err := lightsecagg.RunWireClient(ctx, wc, conn)
			if err != nil || sum == nil {
				return "", err
			}
			return "complete", nil
		},
	}
}

func lightSecAggReport(sum []field.Element) string {
	var mean float64
	for _, e := range sum {
		mean += float64(lightsecagg.Center(e))
	}
	mean /= float64(len(sum))
	first := make([]int64, 0, 8)
	for _, e := range sum[:min(8, len(sum))] {
		first = append(first, lightsecagg.Center(e))
	}
	return fmt.Sprintf("lightsecagg round complete: per-coordinate mean %.2f (first 8: %v)\n", mean, first)
}
