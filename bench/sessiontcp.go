package main

import (
	"context"
	"crypto/rand"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ring"
	"repro/internal/secagg"
	"repro/internal/sig"
	"repro/internal/transport"
)

// stageDeadline is every wire deadline of the benchmark. No workload has
// a wire dropout (each would cost exactly one deadline and measure the
// constant, not the program), so a deadline only ever bounds a hang; 20 s
// keeps any deadline constant out of every timing.
const stageDeadline = 20 * time.Second

// sessionTCP is one continuing aggregation service over loopback TCP: a
// signed re-key handshake then a SecAgg round, every round, on persistent
// client and server sessions and one shared engine. Before each round one
// client (round-robin) is bounced — its session is lost and it re-dials —
// so every steady-state round is a partial resume that re-keys exactly
// that client's n−1 edges.
type sessionTCP struct {
	n, dim  int
	ids     []uint64
	base    secagg.Config
	inputs  map[uint64]ring.Vector
	wantSum ring.Vector

	tr     *tracer
	ctx    context.Context
	cancel context.CancelFunc
	srv    *transport.TCPServer
	tapped *tapServer
	eng    *engine.Engine
	signer *sig.Signer
	sess   *secagg.ServerSession
	conns  map[uint64]transport.ClientConn
	csess  map[uint64]*secagg.Session

	lastServer  *secagg.Result
	lastClients map[uint64]*secagg.Result
}

// sessionTCPConfig is the round every party of flat_session_tcp is
// configured for; Round and KeyRatchet come from each handshake.
func sessionTCPConfig(small bool) secagg.Config {
	dim := 65536
	if small {
		dim = 4096
	}
	return secagg.Config{ClientIDs: clientIDs(32), Threshold: 24, Bits: 20, Dim: dim}
}

func openSessionTCP(seed uint64, small bool, tr *tracer) (workload, error) {
	w := &sessionTCP{base: sessionTCPConfig(small), tr: tr}
	w.ids, w.n, w.dim = w.base.ClientIDs, len(w.base.ClientIDs), w.base.Dim
	w.inputs = ringInputs(seed, w.ids, w.base.Bits, w.dim)
	w.wantSum = ringSum(w.inputs, w.ids, w.base.Bits, w.dim)

	var err error
	if w.signer, err = sig.NewSigner(rand.Reader); err != nil {
		return nil, err
	}
	if w.srv, err = transport.ListenTCP("127.0.0.1:0"); err != nil {
		return nil, err
	}
	w.ctx, w.cancel = context.WithCancel(context.Background())
	w.tapped = tr.wrapServer("flat", w.srv)
	// One engine — one transport fan-in — spans every handshake and round
	// on the connection, as in cmd/dordis-node's session server.
	w.eng = engine.New(engine.TransportSource(w.ctx, w.tapped))
	w.sess = secagg.NewServerSession()
	w.conns = make(map[uint64]transport.ClientConn, w.n)
	w.csess = make(map[uint64]*secagg.Session, w.n)
	for _, id := range w.ids {
		if w.csess[id], err = secagg.NewSession(rand.Reader); err != nil {
			w.close()
			return nil, err
		}
		conn, err := transport.DialTCP(w.srv.Addr(), id)
		if err != nil {
			w.close()
			return nil, err
		}
		w.conns[id] = tr.wrapClient("flat", id, conn)
	}
	// Round 0 is the cold round that establishes every key; it is part of
	// set-up, and a failure there fails the pass.
	if err := w.round(0); err != nil {
		w.close()
		return nil, fmt.Errorf("cold round: %w", err)
	}
	if _, err := w.check(); err != nil {
		w.close()
		return nil, fmt.Errorf("cold round: %w", err)
	}
	return w, nil
}

// bounce loses one client's session and connection. It runs before the
// timed region: the benchmark times the round a bounce causes, not the
// bounce.
func (w *sessionTCP) bounce(id uint64) error {
	sess, err := secagg.NewSession(rand.Reader)
	if err != nil {
		return err
	}
	old := w.conns[id]
	old.Close()
	conn, err := transport.DialTCP(w.srv.Addr(), id)
	if err != nil {
		return err
	}
	w.csess[id] = sess
	w.conns[id] = w.tr.rewrapClient(old, conn)
	return nil
}

func (w *sessionTCP) prepare(i int) error { return w.bounce(w.ids[(i-1)%w.n]) }

func (w *sessionTCP) run(i int) error { return w.round(i) }

func (w *sessionTCP) round(i int) error {
	round := uint64(i + 1) // the cold round is wire round 1
	w.lastServer, w.lastClients = nil, make(map[uint64]*secagg.Result, w.n)
	var mu sync.Mutex // guards lastClients
	p := newParties(w.ctx)
	w.tr.beginRound(i)
	for _, id := range w.ids {
		p.spawn(func(ctx context.Context) error {
			res, err := w.client(ctx, id)
			if err != nil {
				return fmt.Errorf("client %d: %w", id, err)
			}
			mu.Lock()
			w.lastClients[id] = res
			mu.Unlock()
			return nil
		})
	}
	p.do(func(ctx context.Context) (err error) {
		if w.lastServer, err = w.server(ctx, round); err != nil {
			return fmt.Errorf("server: %w", err)
		}
		return nil
	})
	err := p.wait()
	w.tr.endRound()
	return err
}

func (w *sessionTCP) server(ctx context.Context, round uint64) (*secagg.Result, error) {
	hs, err := core.RunHandshakeServer(ctx, core.HandshakeConfig{
		Round: round, Protocol: core.ProtocolSecAgg, ClientIDs: w.ids,
		KeyRounds: math.MaxInt32, Deadline: stageDeadline, Signer: w.signer,
	}, w.sess, w.eng, w.tapped)
	if err != nil {
		return nil, err
	}
	cfg := w.base
	cfg.Round, cfg.KeyRatchet, cfg.NoiseEpoch = hs.Round, hs.Ratchet, hs.NoiseEpoch
	return core.RunWireServer(ctx, core.WireServerConfig{
		SecAgg: cfg, StageDeadline: stageDeadline,
		Session: w.sess, Resume: hs.Resume, Divergent: hs.Divergent, Engine: w.eng,
	}, w.tapped)
}

func (w *sessionTCP) client(ctx context.Context, id uint64) (*secagg.Result, error) {
	conn, sess := w.conns[id], w.csess[id]
	hs, err := core.RunHandshakeClient(ctx, core.ClientHandshakeConfig{
		ID: id, Protocol: core.ProtocolSecAgg, ServerPub: w.signer.Public(), Rand: rand.Reader,
	}, sess, conn)
	if err != nil {
		return nil, err
	}
	cfg := w.base
	cfg.Round, cfg.KeyRatchet, cfg.NoiseEpoch = hs.Round, hs.Ratchet, hs.NoiseEpoch
	return core.RunWireClient(ctx, core.WireClientConfig{
		SecAgg: cfg, ID: id, Input: w.inputs[id], DropBefore: core.NoDrop, Rand: rand.Reader,
		Session: sess, Resume: hs.Resume, Divergent: hs.Divergent,
	}, conn)
}

func (w *sessionTCP) check() (roundCheck, error) {
	if w.lastServer == nil {
		return roundCheck{}, fmt.Errorf("oracle: no result")
	}
	if !sameIDs(w.lastServer.Survivors, w.ids) {
		return roundCheck{}, fmt.Errorf("oracle: survivors %v are not the roster", w.lastServer.Survivors)
	}
	if err := checkRingSum(w.lastServer.Sum, w.wantSum); err != nil {
		return roundCheck{}, err
	}
	// "Every surviving party holds the verified result": each client's
	// copy is checked too, not just the server's.
	for _, id := range w.ids {
		res := w.lastClients[id]
		if res == nil {
			return roundCheck{}, fmt.Errorf("oracle: client %d holds no result", id)
		}
		if err := checkRingSum(res.Sum, w.wantSum); err != nil {
			return roundCheck{}, fmt.Errorf("client %d: %w", id, err)
		}
	}
	return roundCheck{}, nil
}

func (w *sessionTCP) info() workloadInfo {
	return workloadInfo{clients: w.n, survivors: w.n, dim: w.dim}
}

func (w *sessionTCP) close() error {
	w.cancel()
	for _, c := range w.conns {
		c.Close()
	}
	return w.srv.Close()
}
