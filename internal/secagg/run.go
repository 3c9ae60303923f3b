package secagg

import (
	"fmt"
	"io"

	"repro/internal/engine"
	"repro/internal/ring"
	"repro/internal/sig"
)

// DropSchedule maps a client id to the stage *before* which it vanishes:
// a client with DropSchedule[id] = StageMaskedInput completes AdvertiseKeys
// and ShareKeys but never uploads its masked input (the paper's §6.1
// dropout model: "they drop out after being sampled but before sending
// their masked and perturbed update"). Clients absent from the map never
// drop.
type DropSchedule map[uint64]Stage

// Participates reports whether the client is still alive at the stage;
// callers use it to partition aggregated vs. dropped clients under a
// per-stage schedule.
func (d DropSchedule) Participates(id uint64, s Stage) bool {
	dropStage, drops := d[id]
	return !drops || s < dropStage
}

// participants filters ids to those alive at the stage.
func (d DropSchedule) participants(ids []uint64, s Stage) []uint64 {
	out := make([]uint64, 0, len(ids))
	for _, id := range ids {
		if d.Participates(id, s) {
			out = append(out, id)
		}
	}
	return out
}

// RunResult bundles the round outcome with the protocol actors, which
// white-box tests inspect.
type RunResult struct {
	Result  Result
	Server  *Server
	Clients map[uint64]*Client
}

// RunWithSessions executes one full aggregation round in-process: the
// server's and the clients' stage tables (Program) walked by
// engine.RunLocal in lockstep — each stage's recipients stepping on
// engine.ForEach's bounded workers, their messages handed to the round
// engine as typed values in id order, the server's incremental Add*/Seal*
// methods consuming them one by one. Dropouts are
// injected per the schedule: a client that drops before stage k
// contributes to every stage before k and none from k on. signers may be
// nil in the semi-honest setting.
//
// sess is an optional set of shared key-agreement sessions (nil runs a
// standalone round). The first round on fresh sessions runs the full
// protocol and populates them (key pairs, pairwise secrets, the sealed roster);
// subsequent rounds on the same sessions skip the advertise stage
// entirely (the roster is cached and the keys unchanged) and hit the
// secret caches instead of re-running X25519 — per-chunk masks stay
// independent through Config.MaskEpoch, per-round masks through
// Config.KeyRatchet.
func RunWithSessions(cfg Config, inputs map[uint64]ring.Vector, signers map[uint64]*sig.Signer,
	drops DropSchedule, rand io.Reader, sess *RoundSessions) (*RunResult, error) {

	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	resume := sess.resumable(&cfg, drops)
	var srvSess *ServerSession
	if sess != nil {
		if err := sess.markServed(&cfg); err != nil {
			return nil, err
		}
		srvSess = sess.Server
	}
	// The parties are built on the cfg validated above, not validated
	// again once per party.
	server := newServer(cfg, srvSess)
	shared := engine.SharedReader(rand)
	clients := make(map[uint64]*Client, len(cfg.ClientIDs))
	programs := make([]engine.ClientProgram, 0, len(cfg.ClientIDs))
	for _, id := range cfg.ClientIDs {
		input, ok := inputs[id]
		if !ok {
			return nil, fmt.Errorf("secagg: no input for client %d", id)
		}
		var signer *sig.Signer
		if signers != nil {
			signer = signers[id]
		}
		var cs *Session
		if sess != nil {
			cs = sess.Client[id]
		}
		c, err := newClient(cfg, id, input, signer, shared, cs)
		if err != nil {
			return nil, err
		}
		clients[id] = c
		programs = append(programs, c.Program(new(ClientRound), resume, nil))
	}
	var round ServerRound
	err := engine.RunLocal(server.Program(&round, resume, nil), programs, func(id uint64) int {
		if stage, ok := drops[id]; ok {
			return int(stage)
		}
		return engine.NoDrop
	})
	if err != nil {
		return nil, err
	}
	return &RunResult{Result: round.Result, Server: server, Clients: clients}, nil
}
