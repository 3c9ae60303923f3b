package secagg

import (
	"fmt"

	"repro/internal/engine"
)

// The round as data: the server's and the client's stage tables, which
// the engine's walkers (engine.RunLocal in-process, engine.ServeWire /
// engine.JoinWire over a transport) run. Step k of either table is
// protocol stage k (the Stage constants), so a DropSchedule entry is a
// step index. Message bodies are the typed messages of messages.go; the
// wire codec for them lives in package core.

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
// methods. Every message that names its sender gets the link-verified one
// stamped over it (engine.Stamped).
func (s *Server) Program(round *ServerRound) engine.ServerProgram {
	cfg := s.cfg
	var noiseReq *NoiseShareRequest
	unmaskQuorumMet := s.UnmaskQuorumMet
	if cfg.XNoise != nil {
		// XNoise rounds wait for every survivor: see UnmaskQuorumMet.
		unmaskQuorumMet = nil
	}
	steps := []engine.ServerStep{{
		Name: StageAdvertiseKeys.String(), Tag: TagAdvertise,
		Apply: engine.Stamped(s.AddAdvertise, func(m *AdvertiseMsg) *uint64 { return &m.From }),
		Preseed: func() error {
			roster := s.session.RosterFor(cfg.ClientIDs)
			if roster == nil {
				return fmt.Errorf("secagg: no cached roster for this client set")
			}
			for _, m := range roster {
				if err := s.AddAdvertise(m); err != nil {
					return err
				}
			}
			return nil
		},
		Seal: func() (engine.Downlink, error) {
			roster, err := s.SealAdvertise()
			if err == nil {
				s.session.StoreRoster(roster, cfg.ClientIDs)
			}
			round.Roster = roster
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
		Apply: engine.Stamped(s.AddMasked, func(m *MaskedInputMsg) *uint64 { return &m.From }),
		Seal: func() (engine.Downlink, error) {
			u3, err := s.SealMasked()
			return engine.Downlink{Tag: TagConsistencyReq, To: u3, Body: u3}, err
		},
	}, {
		// Uniform flow: signatures are empty when semi-honest.
		Name: StageConsistencyCheck.String(), Tag: TagConsistency,
		Apply: engine.Stamped(s.AddConsistency, func(m *ConsistencyMsg) *uint64 { return &m.From }),
		Seal: func() (engine.Downlink, error) {
			req, err := s.SealConsistency()
			return engine.Downlink{Tag: TagUnmaskReq, To: req.U4, Body: req}, err
		},
	}, {
		// The per-cohort predicate cuts the stage before all-of-N the
		// moment every reconstruction cohort holds its t shares — on a
		// SecAgg+ graph when the last short cohort fills, under the
		// complete graph at the t-th response.
		Name: StageUnmasking.String(), Tag: TagUnmask, QuorumMet: unmaskQuorumMet,
		Apply: engine.Stamped(s.AddUnmask, func(m *UnmaskMsg) *uint64 { return &m.From }),
		Seal: func() (engine.Downlink, error) {
			var err error
			if noiseReq, err = s.SealUnmask(); noiseReq == nil {
				return engine.Downlink{}, err // nobody to ask: the next step falls through
			}
			return engine.Downlink{Tag: TagNoiseReq, To: noiseReq.U5, Body: *noiseReq}, err
		},
	}, {
		// Collected only when survivors died between stages 2 and 4; the
		// seal closes the round either way.
		Name: StageNoiseRemoval.String(), Tag: TagNoise,
		Apply: engine.Stamped(s.AddNoiseShare, func(m *NoiseShareMsg) *uint64 { return &m.From }),
		Seal: func() (engine.Downlink, error) {
			if noiseReq != nil {
				if err := s.SealNoiseShares(); err != nil {
					return engine.Downlink{}, err
				}
			}
			var err error
			round.Result, err = s.Finalize()
			return engine.Downlink{Tag: TagResult, To: round.Result.Survivors, Body: round.Result}, err
		},
	}}
	return engine.ServerProgram{Roster: cfg.ClientIDs, Steps: steps}
}

// ClientRound is what walking a client's Program leaves behind.
type ClientRound struct {
	Roster []AdvertiseMsg // the roster the client shared keys against
	Result *Result        // nil when the client dropped or was excluded
}

// Program lays the client's round out as a stage table over its stage
// methods.
func (c *Client) Program(round *ClientRound) engine.ClientProgram {
	resumed := false
	steps := []engine.ClientStep{{
		Name: StageAdvertiseKeys.String(), Await: engine.NoTag, Send: TagAdvertise,
		Do:   func(any) (any, error) { return c.AdvertiseKeys() },
		Skip: c.SkipAdvertise,
	}, {
		// ShareKeys verifies this client's own entry in whatever roster it
		// ends up with, so a merge that lost or replaced it fails loudly
		// here rather than desynchronize the round.
		Name: StageShareKeys.String(), Await: TagRoster, Send: TagShares,
		Cached: func() (any, error) {
			if c.session != nil {
				if roster := c.session.Roster(); roster != nil {
					resumed = true
					return roster, nil
				}
			}
			return nil, fmt.Errorf("secagg: no cached roster")
		},
		Do: func(body any) (any, error) {
			round.Roster = body.([]AdvertiseMsg)
			if c.session != nil && !resumed {
				c.session.StoreRoster(round.Roster)
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
			res := body.(Result)
			round.Result = &res
			return nil, nil
		},
	}}
	return engine.ClientProgram{ID: c.id, Steps: steps}
}
