package secagg

import (
	"fmt"
	"slices"

	"repro/internal/engine"
)

// The round as data: the server's and the client's stage tables, which
// the engine's walkers (engine.RunLocal in-process, engine.ServeWire /
// engine.JoinWire over a transport) run. Step k of either table is
// protocol stage k (the Stage constants), so a DropSchedule entry is a
// step index. Message bodies are the typed messages of messages.go; the
// wire codec for them lives in package core.
//
// A resumed round is rows too: the caller (the wire handshake's commit,
// or RoundSessions.resumable in process) passes both Program methods
// resume and the divergent members, who alone re-advertise; on a full
// resume (none) the server seals its cached roster silently and every
// client reads its own.

// Frame tags of the round's messages, in protocol order: even tags travel
// client → server, odd tags server → client (PROTOCOL.md pins the numbers).
const (
	TagAdvertise      = iota // AdvertiseMsg
	TagRoster                // []AdvertiseMsg
	TagShares                // []EncryptedShareMsg, one sender's list
	TagDeliver               // []EncryptedShareMsg, one recipient's list
	TagMasked                // MaskedInputMsg
	TagConsistencyReq        // []uint64 (U3)
	TagConsistency           // ConsistencyMsg
	TagUnmaskReq             // UnmaskRequest
	TagUnmask                // UnmaskMsg
	TagNoiseReq              // NoiseShareRequest
	TagNoise                 // NoiseShareMsg
	TagResult                // Result
)

// ServerRound is what walking a server's Program leaves behind.
type ServerRound struct {
	Roster []AdvertiseMsg // the sealed stage-0 roster, collected or resumed
	Result Result
}

// Program lays the server's round out as a stage table over its Add*/Seal*
// methods. Every row whose message names its sender writes the
// link-verified one over it, on its own copy, so no client uploads under
// another's id. The table is built on the first call and kept: its rows
// read the walk's state (round, resume) from the server, so a kept server
// (RunWithSessions) hands the engine the same table every sub-round.
func (s *Server) Program(round *ServerRound, resume bool, divergent []uint64) engine.ServerProgram {
	s.walk = serverWalk{round: round, resume: resume, silentRoster: resume && len(divergent) == 0}
	if s.steps == nil {
		s.steps = s.table()
		s.quorum = s.UnmaskQuorumMet
	}
	s.steps[StageUnmasking].QuorumMet = s.quorum
	if s.cfg.XNoise != nil {
		// XNoise rounds wait for every survivor: see UnmaskQuorumMet.
		s.steps[StageUnmasking].QuorumMet = nil
	}
	advertisers := s.cfg.ClientIDs
	if resume {
		advertisers = divergent
	}
	return engine.ServerProgram{Roster: advertisers, Steps: s.steps}
}

// serverWalk is the state a server's table reads during one walk.
type serverWalk struct {
	round        *ServerRound
	resume       bool
	silentRoster bool               // a full resume: the roster seals without a broadcast
	noiseReq     *NoiseShareRequest // the stage-5 request, when one was sent
}

// table builds the server's stage table, one row per protocol stage.
func (s *Server) table() []engine.ServerStep {
	return []engine.ServerStep{{
		Name: StageAdvertiseKeys.String(), Tag: TagAdvertise,
		Apply: func(from uint64, body any) error {
			m := body.(AdvertiseMsg)
			m.From = from
			return s.AddAdvertise(m)
		},
		Seal: func() (engine.Downlink, error) {
			if s.walk.resume {
				cached := s.session.RosterFor(s.cfg.ClientIDs)
				if cached == nil {
					return engine.Downlink{}, fmt.Errorf("secagg: no cached roster for this client set")
				}
				if s.walk.silentRoster {
					// Nobody re-advertised: the cached roster is the sealed
					// one, kept as it is.
					err := s.InstallRoster(cached)
					s.walk.round.Roster = cached
					return engine.Downlink{Tag: engine.NoTag, To: s.u1}, err
				}
				for _, m := range cached {
					if err := s.AddAdvertise(m); err != nil {
						return engine.Downlink{}, err
					}
				}
			}
			roster, err := s.SealAdvertise()
			if err == nil {
				s.session.StoreRoster(roster, s.cfg.ClientIDs)
			}
			s.walk.round.Roster = roster
			return engine.Downlink{Tag: TagRoster, To: s.u1, Body: roster}, err
		},
	}, {
		// Each sender's ciphertext list routes into recipient outboxes on
		// arrival.
		Name: StageShareKeys.String(), Tag: TagShares,
		Apply: func(from uint64, body any) error {
			return s.AddShare(from, body.([]EncryptedShareMsg))
		},
		Seal: func() (engine.Downlink, error) {
			deliveries, err := s.SealShares()
			return engine.Downlink{Tag: TagDeliver, To: s.u2, Each: func(id uint64) any { return deliveries[id] }}, err
		},
	}, {
		// Masked vectors fold into the partial aggregate as they arrive —
		// the round's dominant payload never waits for a stage barrier.
		Name: StageMaskedInput.String(), Tag: TagMasked,
		Apply: func(from uint64, body any) error {
			m := body.(MaskedInputMsg)
			m.From = from
			return s.AddMasked(m)
		},
		Seal: func() (engine.Downlink, error) {
			u3, err := s.SealMasked()
			return engine.Downlink{Tag: TagConsistencyReq, To: u3, Body: u3}, err
		},
	}, {
		// Uniform flow: signatures are empty when semi-honest.
		Name: StageConsistencyCheck.String(), Tag: TagConsistency,
		Apply: func(from uint64, body any) error {
			m := body.(ConsistencyMsg)
			m.From = from
			return s.AddConsistency(m)
		},
		Seal: func() (engine.Downlink, error) {
			req, err := s.SealConsistency()
			return engine.Downlink{Tag: TagUnmaskReq, To: req.U4, Body: req}, err
		},
	}, {
		// The per-cohort predicate (Program installs it) cuts the stage
		// before all-of-N the moment every reconstruction cohort holds its t
		// shares — on a SecAgg+ graph when the last short cohort fills,
		// under the complete graph at the t-th response.
		Name: StageUnmasking.String(), Tag: TagUnmask,
		Apply: func(from uint64, body any) error {
			m := body.(UnmaskMsg)
			m.From = from
			return s.AddUnmask(m)
		},
		Seal: func() (engine.Downlink, error) {
			req, err := s.SealUnmask()
			if s.walk.noiseReq = req; req == nil {
				return engine.Downlink{}, err // nobody to ask: the next step falls through
			}
			return engine.Downlink{Tag: TagNoiseReq, To: req.U5, Body: *req}, err
		},
	}, {
		// Collected only when survivors died between stages 2 and 4; the
		// seal closes the round either way.
		Name: StageNoiseRemoval.String(), Tag: TagNoise,
		Apply: func(from uint64, body any) error {
			m := body.(NoiseShareMsg)
			m.From = from
			return s.AddNoiseShare(m)
		},
		Seal: func() (engine.Downlink, error) {
			if s.walk.noiseReq != nil {
				if err := s.SealNoiseShares(); err != nil {
					return engine.Downlink{}, err
				}
			}
			round := s.walk.round
			var err error
			round.Result, err = s.Finalize()
			return engine.Downlink{Tag: TagResult, To: round.Result.Survivors, Body: round.Result}, err
		},
	}}
}

// ClientRound is what walking a client's Program leaves behind.
type ClientRound struct {
	Roster   []AdvertiseMsg // the roster the client shared keys against
	Result   Result         // the round's result, when Received
	Received bool           // false when the client dropped or was excluded
}

// Program lays the client's round out as a stage table over its stage
// methods. Like the server's, the table is built on the first call and
// kept, its rows reading the walk's state from the client; only the two
// tags a resume silences are rewritten per call.
func (c *Client) Program(round *ClientRound, resume bool, divergent []uint64) engine.ClientProgram {
	c.walk = clientWalk{round: round, keepsKeys: resume && !slices.Contains(divergent, c.id),
		holdsRoster: resume && len(divergent) == 0}
	if c.steps == nil {
		c.steps = c.table()
	}
	c.steps[StageAdvertiseKeys].Send, c.steps[StageShareKeys].Await = TagAdvertise, TagRoster
	if c.walk.keepsKeys {
		c.steps[StageAdvertiseKeys].Send = engine.NoTag
	}
	if c.walk.holdsRoster {
		c.steps[StageShareKeys].Await = engine.NoTag
	}
	return engine.ClientProgram{ID: c.id, Steps: c.steps}
}

// clientWalk is the state a client's table reads during one walk.
type clientWalk struct {
	round       *ClientRound
	keepsKeys   bool // resumed on its session's keys: nothing to advertise
	holdsRoster bool // a full resume: the cached roster, no broadcast
}

// table builds the client's stage table, one row per protocol stage and
// the Result step.
func (c *Client) table() []engine.ClientStep {
	return []engine.ClientStep{{
		Name: StageAdvertiseKeys.String(), Await: engine.NoTag, Send: TagAdvertise,
		Do: func(any) (any, error) {
			if c.walk.keepsKeys {
				return nil, nil
			}
			return c.AdvertiseKeys()
		},
	}, {
		// ShareKeys verifies this client's own entry in whatever roster it
		// ends up with, so a merge that lost or replaced it fails loudly
		// here rather than desynchronize the round.
		Name: StageShareKeys.String(), Await: TagRoster, Send: TagShares,
		Do: func(body any) (any, error) {
			round := c.walk.round
			if c.walk.keepsKeys {
				// Here, not at stage 0, so a failure is reported under a
				// tag the server collects from this client.
				if err := c.SkipAdvertise(); err != nil {
					return nil, err
				}
			}
			if !c.walk.holdsRoster {
				round.Roster = body.([]AdvertiseMsg)
				if c.session != nil {
					c.session.StoreRoster(round.Roster)
				}
			} else if round.Roster = c.session.Roster(); round.Roster == nil { // a session: SkipAdvertise passed
				return nil, fmt.Errorf("secagg: no cached roster")
			}
			return c.ShareKeys(round.Roster)
		},
	}, {
		Name: StageMaskedInput.String(), Await: TagDeliver, Send: TagMasked,
		Do: func(body any) (any, error) { return c.MaskedInput(body.([]EncryptedShareMsg)) },
	}, {
		Name: StageConsistencyCheck.String(), Await: TagConsistencyReq, Send: TagConsistency,
		Do: func(body any) (any, error) { return c.ConsistencyCheck(body.([]uint64)) },
	}, {
		Name: StageUnmasking.String(), Await: TagUnmaskReq, Send: TagUnmask,
		Do: func(body any) (any, error) { return c.Unmask(body.(UnmaskRequest)) },
	}, {
		Name: StageNoiseRemoval.String(), Await: TagNoiseReq, Send: TagNoise, Optional: true,
		Do: func(body any) (any, error) { return c.RevealNoiseShares(body.(NoiseShareRequest)) },
	}, {
		Name: "Result", Await: TagResult, Send: engine.NoTag,
		Do: func(body any) (any, error) {
			res, err := c.receiveResult(body.(Result))
			if err == nil {
				c.walk.round.Result, c.walk.round.Received = res, true
			}
			return nil, err
		},
	}}
}
