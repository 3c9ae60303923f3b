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
// Config.KeyRatchet. The sessions also keep the round's parties: one
// server and one client per id, with their stage tables and the walk's
// scratch, re-aimed at every sub-round (parties) rather than rebuilt, so
// the returned RunResult's Server and Clients are the sessions' and
// change with their next sub-round.
func RunWithSessions(cfg Config, inputs map[uint64]ring.Vector, signers map[uint64]*sig.Signer,
	drops DropSchedule, rand io.Reader, sess *RoundSessions) (*RunResult, error) {

	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	resume := sess.resumable(&cfg, drops)
	var (
		p          *parties
		srvSess    *ServerSession
		clientSess = func(uint64) *Session { return nil }
	)
	if sess == nil {
		p = new(parties) // a standalone round's own
	} else {
		if err := sess.markServed(&cfg); err != nil {
			return nil, err
		}
		p, srvSess = sess.partiesFor(cfg.ClientIDs), sess.Server
		clientSess = func(id uint64) *Session { return sess.Client[id] }
	}
	// The parties are aimed at the cfg validated above, not validated
	// again once per party.
	if err := p.aim(cfg, srvSess, inputs, signers, engine.SharedReader(rand), clientSess, resume); err != nil {
		return nil, err
	}
	err := engine.RunLocal(&p.link, p.server.Program(&p.round, resume, nil), p.programs, func(id uint64) int {
		if stage, ok := drops[id]; ok {
			return int(stage)
		}
		return engine.NoDrop
	})
	if err != nil {
		return nil, err
	}
	return &RunResult{Result: p.round.Result, Server: p.server, Clients: p.clients}, nil
}

// parties is one round's server and clients, their stage tables and the
// in-process link's walk scratch. A standalone round builds them; a
// RoundSessions keeps them across its sub-rounds over one client set,
// and each sub-round re-aims them (Server.aim, Client.aim), which empties
// every per-round field, so a sub-round reads nothing of the last one but
// what the sessions keep — the step's deal on a client, the step's share
// routing and self seeds on the server — and those only on byte-equal
// inputs.
type parties struct {
	server   *Server
	clients  map[uint64]*Client
	order    []*Client // clients in ClientIDs order
	programs []engine.ClientProgram
	rounds   []ClientRound
	round    ServerRound
	link     engine.Local
}

// aim readies the parties for a sub-round of cfg, building what the first
// sub-round lacks: the server, then each client in id order, so a client
// with XNoise draws its seeds from rand where a new one would.
func (p *parties) aim(cfg Config, srvSess *ServerSession, inputs map[uint64]ring.Vector,
	signers map[uint64]*sig.Signer, rand io.Reader, clientSess func(uint64) *Session, resume bool) error {

	if p.server == nil {
		p.server = newServer(cfg, srvSess)
		p.clients = make(map[uint64]*Client, len(cfg.ClientIDs))
		p.order = make([]*Client, len(cfg.ClientIDs))
		p.programs = make([]engine.ClientProgram, len(cfg.ClientIDs))
		p.rounds = make([]ClientRound, len(cfg.ClientIDs))
	} else {
		p.server.aim(cfg, srvSess)
	}
	p.round = ServerRound{}
	for i, id := range cfg.ClientIDs {
		input, ok := inputs[id]
		if !ok {
			return fmt.Errorf("secagg: no input for client %d", id)
		}
		var signer *sig.Signer
		if signers != nil {
			signer = signers[id]
		}
		if c := p.order[i]; c != nil {
			if err := c.aim(cfg, input, signer, rand, clientSess(id)); err != nil {
				return err
			}
		} else {
			c, err := newClient(cfg, id, input, signer, rand, clientSess(id))
			if err != nil {
				return err
			}
			p.order[i], p.clients[id] = c, c
		}
		p.rounds[i] = ClientRound{}
		p.programs[i] = p.order[i].Program(&p.rounds[i], resume, nil)
	}
	return nil
}
