// Package churn generates deterministic churn traces: seeded schedules
// of client restarts and mid-round drops over a multi-round run. The
// chaos tests in internal/core drive multi-round wire deployments from
// these traces and pin the continuity guarantees — per-edge re-keys stay
// proportional to churn (dh.Agree counts of order the churned client's
// degree, not n·k), and a killed-and-redialed client rejoins without
// aborting the round. Same seed, same trace: failures replay exactly.
package churn

import (
	mrand "math/rand"
)

// Kind classifies one churn event.
type Kind int

const (
	// Restart kills a client between rounds: its in-memory session state
	// is lost and it re-dials with a fresh session before the next
	// handshake, landing it in the divergent subset (per-edge re-key).
	Restart Kind = iota
	// Drop makes a client vanish mid-round, before its masked upload:
	// the server reconstructs its mask key (tainting its edges) and the
	// client re-dials before the next round.
	Drop
)

func (k Kind) String() string {
	switch k {
	case Restart:
		return "restart"
	case Drop:
		return "drop"
	default:
		return "unknown"
	}
}

// Event is one scheduled churn action.
type Event struct {
	// Round is the round the event applies to: a Restart happens between
	// the previous round and this round's handshake; a Drop happens
	// inside this round.
	Round  uint64
	Client uint64
	Kind   Kind
}

// TraceConfig parameterizes Generate.
type TraceConfig struct {
	Seed    int64
	Clients []uint64
	// Rounds is the number of protocol rounds. Events are scheduled on
	// rounds 2..Rounds — round 1 bootstraps the key generation.
	Rounds uint64
	// RestartsPerRound and DropsPerRound clients are chosen uniformly
	// without replacement for every event round.
	RestartsPerRound int
	DropsPerRound    int
}

// Generate produces the trace, ordered by round. The schedule is a pure
// function of the config: the same seed and parameters always yield the
// same events, so a failing chaos run replays exactly.
func Generate(cfg TraceConfig) []Event {
	rng := mrand.New(mrand.NewSource(cfg.Seed))
	var out []Event
	for r := uint64(2); r <= cfg.Rounds; r++ {
		restarts := min(cfg.RestartsPerRound, len(cfg.Clients))
		drops := min(cfg.DropsPerRound, len(cfg.Clients)-restarts)
		perm := rng.Perm(len(cfg.Clients))
		for i := 0; i < restarts+drops; i++ {
			kind := Restart
			if i >= restarts {
				kind = Drop
			}
			out = append(out, Event{Round: r, Client: cfg.Clients[perm[i]], Kind: kind})
		}
	}
	return out
}

// ByRound indexes a trace by round for per-round replay.
func ByRound(trace []Event) map[uint64][]Event {
	out := make(map[uint64][]Event)
	for _, e := range trace {
		out[e.Round] = append(out[e.Round], e)
	}
	return out
}
