package core

import (
	"crypto/rand"
	"fmt"
	"testing"
	"time"

	"repro/internal/field"
	"repro/internal/lightsecagg"
	"repro/internal/ring"
	"repro/internal/secagg"
	"repro/internal/secaggplus"
)

// TestDriverEquivalence is the one table every way of running a round
// must agree on: substrate × link × drop schedule, with XNoise off so the
// aggregate is exact. Client id contributes the constant vector id; the
// decoded sum must equal the plaintext sum over the clients whose upload
// the schedule lets through. The in-process cell and the two wire cells
// of a SecAgg row walk the same stage tables through the same two
// walkers, so a row that disagrees with itself is a link bug, and a
// column that fails is a substrate bug. LightSecAgg runs in process only,
// on its own stage loop rather than a link, so its row keeps the
// "in-process" cell names alone.

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

// eqRound runs one round of a substrate on link: "in-process", or a
// wireRig link.
type eqRound func(t *testing.T, drop eqDrop, link string) ([]int64, error)

func TestDriverEquivalence(t *testing.T) {
	ids := seqIDs(eqClients)
	complete := secagg.Config{Round: 5, ClientIDs: ids, Threshold: 5, Bits: eqBits, Dim: eqDim}
	sparse, err := secaggplus.NewConfig(secagg.Config{Round: 5, ClientIDs: ids, Threshold: 3, Bits: eqBits, Dim: eqDim}, 4)
	if err != nil {
		t.Fatal(err)
	}
	links := []string{"in-process", "memory", "tcp"}
	substrates := []struct {
		name  string
		run   eqRound
		links []string
	}{
		{"secagg", eqSecAgg(complete), links},
		{"secagg+deg4", eqSecAgg(sparse), links},
		{"lightsecagg", eqLightSecAgg(lightsecagg.Config{ClientIDs: ids, PrivacyT: 2, Dropout: 2, Dim: eqDim, Round: 5}), links[:1]},
	}
	for _, sub := range substrates {
		for _, link := range sub.links {
			for _, drop := range []eqDrop{eqNoDrop, eqDropBeforeMasked, eqDropBeforeRecovery} {
				t.Run(fmt.Sprintf("%s/%s/%s", sub.name, link, drop), func(t *testing.T) {
					t.Parallel()
					sum, err := sub.run(t, drop, link)
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

const eqDeadline = 400 * time.Millisecond

func eqSecAgg(cfg secagg.Config) eqRound {
	return func(t *testing.T, drop eqDrop, link string) ([]int64, error) {
		drops := secagg.DropSchedule{}
		if drop != eqNoDrop {
			drops[eqDropper] = map[eqDrop]secagg.Stage{
				eqDropBeforeMasked: secagg.StageMaskedInput, eqDropBeforeRecovery: secagg.StageUnmasking,
			}[drop]
		}
		var res *secagg.Result
		if link == "in-process" {
			inputs := make(map[uint64]ring.Vector, len(cfg.ClientIDs))
			for _, id := range cfg.ClientIDs {
				v := ring.NewVector(cfg.Bits, cfg.Dim)
				for j := range v.Data {
					v.Data[j] = id
				}
				inputs[id] = v
			}
			rr, err := secagg.RunWithSessions(cfg, inputs, nil, drops, rand.Reader, nil)
			if err != nil {
				return nil, err
			}
			res = &rr.Result
		} else {
			// Client errors are the dropper's and the stragglers' to have;
			// the server's outcome is what the table asserts.
			rig := newWireRig(t, link, cfg)
			rig.lenient, rig.stageDeadline = true, eqDeadline
			var err error
			if _, res, err = rig.try(cfg.Round, drops); err != nil {
				return nil, err
			}
		}
		return ring.Vector{Bits: cfg.Bits, Data: res.Sum}.Centered(), nil
	}
}

// eqLightSecAgg runs the in-process LightSecAgg round; link is always
// "in-process".
func eqLightSecAgg(cfg lightsecagg.Config) eqRound {
	return func(t *testing.T, drop eqDrop, link string) ([]int64, error) {
		inputs := make(map[uint64][]field.Element, len(cfg.ClientIDs))
		for _, id := range cfg.ClientIDs {
			v := make([]field.Element, cfg.Dim)
			for j := range v {
				v[j] = lightsecagg.Lift(int64(id))
			}
			inputs[id] = v
		}
		drops := lightsecagg.DropSchedule{}
		switch drop {
		case eqDropBeforeMasked:
			drops[eqDropper] = lightsecagg.StageMaskedInput
		case eqDropBeforeRecovery:
			drops[eqDropper] = lightsecagg.StageAggShare
		}
		sum, err := lightsecagg.RunWithSessions(cfg, inputs, drops, rand.Reader, nil)
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
