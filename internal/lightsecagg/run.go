package lightsecagg

import (
	"fmt"
	"io"

	"repro/internal/engine"
	"repro/internal/field"
)

// In-process driver: one full LightSecAgg round with the substrate's stage
// tables (Program) walked by engine.RunLocal, the same walkers the SecAgg
// rounds run on. Coded shares travel inside pairwise AEAD envelopes, so
// the session layer's channel-secret cache is observable.

// Stage identifies a point in the client lifecycle, for dropout
// injection and in-process uplink tags.
type Stage int

// The client lifecycle points. A client that drops "before" a stage
// completes every earlier stage and none from that stage on.
const (
	StageAdvertise Stage = iota
	StageShares
	StageMaskedInput
	StageAggShare
)

// String implements fmt.Stringer.
func (s Stage) String() string {
	switch s {
	case StageAdvertise:
		return "advertise"
	case StageShares:
		return "shares"
	case StageMaskedInput:
		return "masked-input"
	case StageAggShare:
		return "agg-share"
	default:
		return fmt.Sprintf("stage(%d)", int(s))
	}
}

// DropSchedule maps a client id to the stage *before* which it vanishes.
// Clients absent from the map never drop. Note that the offline phase
// (advertise + shares) needs every sampled client, so scheduling a drop
// before StageAdvertise or StageShares aborts the round — the supported
// dropout points of the §6.1 model are StageMaskedInput (vanish before
// uploading; excluded from the aggregate) and StageAggShare (vanish
// before answering the one-shot recovery; included in the aggregate).
type DropSchedule map[uint64]Stage

// Participates reports whether the client is still alive at the stage.
func (d DropSchedule) Participates(id uint64, s Stage) bool {
	dropStage, drops := d[id]
	return !drops || s < dropStage
}

// RunWithSessions executes one full round in-process: clients in drops
// vanish before their stage, and sess, when non-nil, is the shared set of
// sessions the round runs on. The first round on fresh sessions runs the full
// protocol and populates them (channel secrets, encoding matrix, the
// sealed roster); subsequent rounds on the same sessions skip the
// advertise stage entirely and hit the caches instead of re-running
// X25519 and the Lagrange weight computations. Masks are drawn fresh
// every round regardless — session reuse never repeats a mask stream.
func RunWithSessions(cfg Config, inputs map[uint64][]field.Element,
	drops DropSchedule, rand io.Reader, sess *RoundSessions) ([]field.Element, error) {

	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	resume := sess.resumable(cfg)
	var srvSess *ServerSession
	if sess != nil {
		srvSess = sess.Server
	}
	server, err := NewSessionServer(cfg, srvSess)
	if err != nil {
		return nil, err
	}
	shared := engine.SharedReader(rand)
	programs := make([]engine.ClientProgram, 0, len(cfg.ClientIDs))
	for _, id := range cfg.ClientIDs {
		input, ok := inputs[id]
		if !ok {
			return nil, fmt.Errorf("lightsecagg: no input for client %d", id)
		}
		var cs *Session
		if sess != nil {
			cs = sess.Client[id]
		}
		c, err := NewSessionClient(cfg, id, shared, cs)
		if err != nil {
			return nil, err
		}
		p := c.Program(input, new([]field.Element))
		p.Resume = resume
		programs = append(programs, p)
	}
	var sum []field.Element
	program := server.Program(&sum)
	program.Resume = resume
	err = engine.RunLocal(program, programs, func(id uint64) int {
		if stage, ok := drops[id]; ok {
			return int(stage)
		}
		return engine.NoDrop
	})
	return sum, err
}
