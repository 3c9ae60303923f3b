package core

import (
	"context"
	"crypto/rand"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/field"
	"repro/internal/lightsecagg"
	"repro/internal/ring"
	"repro/internal/secagg"
	"repro/internal/secaggplus"
	"repro/internal/transport"
)

// TestDriverEquivalence is the one table every way of running a round
// must agree on: substrate × link × drop schedule, with XNoise off so the
// aggregate is exact. Client id contributes the constant vector id; the
// decoded sum must equal the plaintext sum over the clients whose upload
// the schedule lets through. The in-process cell and the two wire cells
// of a row walk the same stage tables through the same two walkers, so a
// row that disagrees with itself is a link bug, and a column that fails
// is a substrate bug.

const (
	eqClients = 8
	eqDim     = 16
	eqDropper = 5 // the client the schedule drops
	eqBits    = 20
)

// eqDrop is where the dropper vanishes.
type eqDrop int

const (
	eqNoDrop             eqDrop = iota
	eqDropBeforeMasked          // never uploads: excluded from the sum
	eqDropBeforeRecovery        // uploads, then vanishes before unmask / agg-share: included
)

func (d eqDrop) String() string {
	return [...]string{"no-drop", "drop-before-masked", "drop-before-recovery"}[d]
}

// eqRound runs one round of a substrate. conns is nil for the in-process
// link; otherwise every client is already connected to srv.
type eqRound func(t *testing.T, drop eqDrop, srv transport.ServerConn, conns map[uint64]transport.ClientConn) ([]int64, error)

func TestDriverEquivalence(t *testing.T) {
	ids := make([]uint64, eqClients)
	for i := range ids {
		ids[i] = uint64(i + 1)
	}
	complete := secagg.Config{Round: 5, ClientIDs: ids, Threshold: 5, Bits: eqBits, Dim: eqDim}
	sparse, err := secaggplus.NewConfig(secagg.Config{Round: 5, ClientIDs: ids, Threshold: 3, Bits: eqBits, Dim: eqDim}, 4)
	if err != nil {
		t.Fatal(err)
	}
	substrates := []struct {
		name string
		run  eqRound
	}{
		{"secagg", eqSecAgg(complete)},
		{"secagg+deg4", eqSecAgg(sparse)},
		{"lightsecagg", eqLightSecAgg(lightsecagg.Config{ClientIDs: ids, PrivacyT: 2, Dropout: 2, Dim: eqDim, Round: 5})},
	}
	links := []struct {
		name    string
		connect func(t *testing.T, ids []uint64) (transport.ServerConn, map[uint64]transport.ClientConn)
	}{
		{"in-process", nil},
		{"memory", eqMemoryNet},
		{"tcp", eqTCPNet},
	}
	for _, sub := range substrates {
		for _, link := range links {
			for _, drop := range []eqDrop{eqNoDrop, eqDropBeforeMasked, eqDropBeforeRecovery} {
				t.Run(fmt.Sprintf("%s/%s/%s", sub.name, link.name, drop), func(t *testing.T) {
					t.Parallel()
					var srv transport.ServerConn
					var conns map[uint64]transport.ClientConn
					if link.connect != nil {
						srv, conns = link.connect(t, ids)
					}
					sum, err := sub.run(t, drop, srv, conns)
					if err != nil {
						t.Fatal(err)
					}
					var want int64
					for _, id := range ids {
						if drop != eqDropBeforeMasked || id != eqDropper {
							want += int64(id)
						}
					}
					if len(sum) != eqDim {
						t.Fatalf("sum has %d coordinates, want %d", len(sum), eqDim)
					}
					for i, v := range sum {
						if v != want {
							t.Fatalf("sum[%d] = %d, want %d", i, v, want)
						}
					}
				})
			}
		}
	}
}

func eqMemoryNet(t *testing.T, ids []uint64) (transport.ServerConn, map[uint64]transport.ClientConn) {
	net := transport.NewMemoryNetwork(256)
	conns := make(map[uint64]transport.ClientConn, len(ids))
	for _, id := range ids {
		c, err := net.Connect(id)
		if err != nil {
			t.Fatal(err)
		}
		conns[id] = c
	}
	return net.Server(), conns
}

func eqTCPNet(t *testing.T, ids []uint64) (transport.ServerConn, map[uint64]transport.ClientConn) {
	srv, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	conns := make(map[uint64]transport.ClientConn, len(ids))
	for _, id := range ids {
		c, err := transport.DialTCP(srv.Addr(), id)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		conns[id] = c
	}
	for deadline := time.Now().Add(5 * time.Second); len(srv.Clients()) < len(ids); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d clients connected", len(srv.Clients()), len(ids))
		}
	}
	return srv, conns
}

// eqWire runs every client and then the server of one wire round; client
// errors are the dropper's and the stragglers' to have, the server's
// outcome is what the table asserts.
func eqWire(conns map[uint64]transport.ClientConn, client func(ctx context.Context, id uint64, conn transport.ClientConn),
	server func(ctx context.Context) error) error {

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for id, conn := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client(ctx, id, conn)
		}()
	}
	err := server(ctx)
	cancel() // release any client still blocked on Recv
	wg.Wait()
	return err
}

const eqDeadline = 400 * time.Millisecond

func eqSecAgg(cfg secagg.Config) eqRound {
	return func(t *testing.T, drop eqDrop, srv transport.ServerConn, conns map[uint64]transport.ClientConn) ([]int64, error) {
		dropStage := map[eqDrop]secagg.Stage{
			eqNoDrop: NoDrop, eqDropBeforeMasked: secagg.StageMaskedInput, eqDropBeforeRecovery: secagg.StageUnmasking,
		}[drop]
		inputs := make(map[uint64]ring.Vector, len(cfg.ClientIDs))
		for _, id := range cfg.ClientIDs {
			v := ring.NewVector(cfg.Bits, cfg.Dim)
			for j := range v.Data {
				v.Data[j] = id
			}
			inputs[id] = v
		}
		var sum []uint64
		if conns == nil {
			drops := secagg.DropSchedule{}
			if drop != eqNoDrop {
				drops[eqDropper] = dropStage
			}
			rr, err := secagg.Run(cfg, inputs, nil, drops, rand.Reader)
			if err != nil {
				return nil, err
			}
			sum = rr.Result.Sum
		} else {
			err := eqWire(conns, func(ctx context.Context, id uint64, conn transport.ClientConn) {
				wc := WireClientConfig{SecAgg: cfg, ID: id, Input: inputs[id], DropBefore: NoDrop, Rand: rand.Reader}
				if id == eqDropper {
					wc.DropBefore = dropStage
				}
				_, _ = RunWireClient(ctx, wc, conn)
			}, func(ctx context.Context) error {
				res, err := RunWireServer(ctx, WireServerConfig{SecAgg: cfg, StageDeadline: eqDeadline}, srv)
				if err == nil {
					sum = res.Sum
				}
				return err
			})
			if err != nil {
				return nil, err
			}
		}
		return ring.Vector{Bits: cfg.Bits, Data: sum}.Centered(), nil
	}
}

func eqLightSecAgg(cfg lightsecagg.Config) eqRound {
	return func(t *testing.T, drop eqDrop, srv transport.ServerConn, conns map[uint64]transport.ClientConn) ([]int64, error) {
		inputs := make(map[uint64][]field.Element, len(cfg.ClientIDs))
		for _, id := range cfg.ClientIDs {
			v := make([]field.Element, cfg.Dim)
			for j := range v {
				v[j] = lightsecagg.Lift(int64(id))
			}
			inputs[id] = v
		}
		var sum []field.Element
		var err error
		if conns == nil {
			drops := lightsecagg.DropSchedule{}
			switch drop {
			case eqDropBeforeMasked:
				drops[eqDropper] = lightsecagg.StageMaskedInput
			case eqDropBeforeRecovery:
				drops[eqDropper] = lightsecagg.StageAggShare
			}
			sum, err = lightsecagg.RunWithSessions(cfg, inputs, drops, rand.Reader, nil)
		} else {
			dropStage := map[eqDrop]lightsecagg.WireStage{
				eqNoDrop: lightsecagg.WireNoDrop, eqDropBeforeMasked: lightsecagg.WireDropBeforeMasked,
				eqDropBeforeRecovery: lightsecagg.WireDropBeforeAggShare,
			}[drop]
			err = eqWire(conns, func(ctx context.Context, id uint64, conn transport.ClientConn) {
				wc := lightsecagg.WireClientConfig{Config: cfg, ID: id, Input: inputs[id], Rand: rand.Reader}
				if id == eqDropper {
					wc.DropBefore = dropStage
				}
				_, _ = lightsecagg.RunWireClient(ctx, wc, conn)
			}, func(ctx context.Context) (err error) {
				sum, err = lightsecagg.RunWireServer(ctx, lightsecagg.WireServerConfig{Config: cfg, StageDeadline: eqDeadline}, srv)
				return err
			})
		}
		if err != nil {
			return nil, err
		}
		out := make([]int64, len(sum))
		for i, e := range sum {
			out[i] = lightsecagg.Center(e)
		}
		return out, nil
	}
}
