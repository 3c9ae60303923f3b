package core

import (
	"context"
	"crypto/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/prg"
	"repro/internal/ring"
	"repro/internal/secagg"
	"repro/internal/sig"
	"repro/internal/transport"
)

// Straggler-tail and WAN-profile wire benchmarks.
//
// BenchmarkWireUnmaskStragglerTail16 is the round engine.Stage.Quorum
// exists for: one client vanishes after the consistency stage, and the
// unmask stage seals as soon as the threshold is met (UnmaskQuorum: the
// first t responses carry t shares per reconstruction cohort under the
// complete graph) instead of waiting the stage deadline for the straggler.
// The all-of-N arm it was measured against (0.433s → 0.040s) went with
// WireServerConfig.NoUnmaskQuorum; see CHANGES.md, PR 13.
//
// BenchmarkWireRoundWAN16 exercises the transport's latency-injection
// knob (transport.FaultConfig.DelayMax), which the benches never used
// before: every frame is delayed uniformly in [0, DelayMax] on both
// directions. Client uplink delays run concurrently (one goroutine per
// client); the server's broadcast loop serializes its per-frame delays,
// modeling constrained server egress. The lan reference is the identical
// round without the injector.

func BenchmarkWireUnmaskStragglerTail16(b *testing.B) {
	const (
		n        = 16
		t        = 10
		dim      = 1024
		deadline = 400 * time.Millisecond
	)
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(i + 1)
	}
	saCfg := secagg.Config{Round: 1, ClientIDs: ids, Threshold: t, Bits: 20, Dim: dim}
	inputs := make(map[uint64]ring.Vector, n)
	for _, id := range ids {
		inputs[id] = ring.NewVector(20, dim)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net := transport.NewMemoryNetwork(256)
		conns := make(map[uint64]transport.ClientConn, n)
		for _, id := range ids {
			c, err := net.Connect(id)
			if err != nil {
				b.Fatal(err)
			}
			conns[id] = c
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		var wg sync.WaitGroup
		for _, id := range ids {
			id := id
			wg.Add(1)
			go func() {
				defer wg.Done()
				drop := NoDrop
				if id == ids[n-1] {
					// The straggler: answers consistency, then vanishes
					// before its unmask response.
					drop = secagg.StageUnmasking
				}
				cfg := WireClientConfig{
					SecAgg: saCfg, ID: id, Input: inputs[id],
					DropBefore: drop, Rand: rand.Reader,
				}
				_, _ = RunWireClient(ctx, cfg, conns[id])
			}()
		}
		srvCfg := WireServerConfig{SecAgg: saCfg, StageDeadline: deadline}
		_, err := RunWireServer(ctx, srvCfg, net.Server())
		cancel()
		wg.Wait()
		if err != nil {
			b.Fatal(err)
		}
	}
}

func benchWireRoundWAN(b *testing.B, delay time.Duration) {
	const (
		n   = 16
		t   = 12
		dim = 4096
	)
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(i + 1)
	}
	saCfg := secagg.Config{Round: 1, ClientIDs: ids, Threshold: t, Bits: 20, Dim: dim}
	inputs := make(map[uint64]ring.Vector, n)
	for _, id := range ids {
		inputs[id] = ring.NewVector(20, dim)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net := transport.NewMemoryNetwork(256)
		var inj *transport.FaultInjector
		if delay > 0 {
			inj = transport.NewFaultInjector(transport.FaultConfig{
				DelayMax: delay,
				Seed:     prg.NewSeed([]byte("wan-bench"), []byte{byte(i)}),
			})
		}
		conns := make(map[uint64]transport.ClientConn, n)
		for _, id := range ids {
			c, err := net.Connect(id)
			if err != nil {
				b.Fatal(err)
			}
			if inj != nil {
				c = inj.WrapClient(c)
			}
			conns[id] = c
		}
		srvConn := transport.ServerConn(net.Server())
		if inj != nil {
			srvConn = inj.WrapServer(srvConn)
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		var wg sync.WaitGroup
		for _, id := range ids {
			id := id
			wg.Add(1)
			go func() {
				defer wg.Done()
				cfg := WireClientConfig{
					SecAgg: saCfg, ID: id, Input: inputs[id],
					DropBefore: NoDrop, Rand: rand.Reader,
				}
				_, _ = RunWireClient(ctx, cfg, conns[id])
			}()
		}
		_, err := RunWireServer(ctx, WireServerConfig{
			SecAgg: saCfg, StageDeadline: 30 * time.Second,
		}, srvConn)
		cancel()
		wg.Wait()
		if err != nil {
			b.Fatal(err)
		}
	}
}

// benchWireChurnedRound measures a full handshake-plus-round with churn
// injected before every round: churnAll=false bounces one client per
// iteration (the partial path re-keys only its edges — 4 agreements per
// churned edge), churnAll=true bounces all of them (the divergent set
// covers the roster, so the handshake downgrades to a full re-key —
// 2·n·(n−1) agreements plus n key generations). The delta is what
// per-edge partial re-key buys a churned round.
func benchWireChurnedRound(b *testing.B, churnAll bool) {
	const (
		n   = 16
		t   = 9
		dim = 64
	)
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(i + 1)
	}
	signer, err := sig.NewSigner(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	net := transport.NewMemoryNetwork(1024)
	srv := net.Server()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	eng := engine.New(engine.TransportSource(ctx, srv))
	serverSess := secagg.NewServerSession()
	sessions := make(map[uint64]*secagg.Session, n)
	conns := make(map[uint64]transport.ClientConn, n)
	for _, id := range ids {
		sess, err := secagg.NewSession(rand.Reader)
		if err != nil {
			b.Fatal(err)
		}
		sessions[id] = sess
		c, err := net.Connect(id)
		if err != nil {
			b.Fatal(err)
		}
		conns[id] = c
	}
	input := ring.NewVector(16, dim)
	saCfg := func(round, ratchet uint64) secagg.Config {
		return secagg.Config{
			Round: round, ClientIDs: ids, Threshold: t,
			Bits: 16, Dim: dim, KeyRatchet: ratchet,
		}
	}

	runRound := func(round uint64) error {
		var wg sync.WaitGroup
		errCh := make(chan error, n)
		for _, id := range ids {
			id := id
			wg.Add(1)
			go func() {
				defer wg.Done()
				hs, err := RunHandshakeClient(ctx, ClientHandshakeConfig{
					ID: id, Protocol: ProtocolSecAgg, ServerPub: signer.Public(), Rand: rand.Reader,
				}, sessions[id], conns[id])
				if err != nil {
					errCh <- err
					return
				}
				_, err = RunWireClient(ctx, WireClientConfig{
					SecAgg: saCfg(hs.Round, hs.Ratchet), ID: id, Input: input,
					DropBefore: NoDrop, Rand: rand.Reader,
					Session: sessions[id], Resume: hs.Resume, Divergent: hs.Divergent,
				}, conns[id])
				if err != nil {
					errCh <- err
				}
			}()
		}
		hs, err := RunHandshakeServer(ctx, HandshakeConfig{
			Round: round, Protocol: ProtocolSecAgg, ClientIDs: ids,
			KeyRounds: 1 << 30, Deadline: 10 * time.Second, Signer: signer,
		}, serverSess, eng, srv)
		if err != nil {
			return err
		}
		_, err = RunWireServer(ctx, WireServerConfig{
			SecAgg: saCfg(hs.Round, hs.Ratchet), StageDeadline: 10 * time.Second,
			Session: serverSess, Resume: hs.Resume, Divergent: hs.Divergent, Engine: eng,
		}, srv)
		wg.Wait()
		close(errCh)
		if err != nil {
			return err
		}
		return <-errCh
	}
	if err := runRound(1); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		churned := ids[i%n : i%n+1]
		if churnAll {
			churned = ids
		}
		for _, id := range churned {
			conns[id].Close()
			sess, err := secagg.NewSession(rand.Reader)
			if err != nil {
				b.Fatal(err)
			}
			sessions[id] = sess
			c, err := net.Connect(id)
			if err != nil {
				b.Fatal(err)
			}
			conns[id] = c
		}
		if err := runRound(uint64(i + 2)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWirePartialRekeyChurn16 runs the churned 16-client round with
// one restarted client per round (partial per-edge re-key) against the
// everyone-churned reference that downgrades to a full re-key.
func BenchmarkWirePartialRekeyChurn16(b *testing.B) {
	for _, mode := range []string{"partial-1", "full"} {
		b.Run(mode, func(b *testing.B) {
			benchWireChurnedRound(b, mode == "full")
		})
	}
}

// BenchmarkWireRoundWAN16 runs the 16-client wire round under injected
// per-frame latency (uniform in [0, 20ms]) against the zero-latency lan
// reference.
func BenchmarkWireRoundWAN16(b *testing.B) {
	for _, mode := range []struct {
		name  string
		delay time.Duration
	}{{"wan-20ms", 20 * time.Millisecond}, {"lan", 0}} {
		b.Run(mode.name, func(b *testing.B) {
			benchWireRoundWAN(b, mode.delay)
		})
	}
}
