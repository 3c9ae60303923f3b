package lightsecagg

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/field"
)

// The round as data: the server's and the client's stage tables, which
// the engine's walkers (engine.RunLocal in-process, engine.ServeWire /
// engine.JoinWire over a transport) run. Step k of either table is
// lifecycle stage k (the Stage constants), so a DropSchedule entry is a
// step index. Coded mask shares relay through the untrusted server (the
// star topology of §3.3) inside pairwise AEAD envelopes keyed by X25519
// agreement — otherwise the server could collect U of them and unmask
// every client.

// Frame tags of the round's messages, in protocol order: even tags travel
// client → server, odd tags server → client (PROTOCOL.md pins the numbers).
const (
	wireAdvertise = iota // AdvertiseMsg: X25519 channel public key
	wireRoster           // []AdvertiseMsg: all public keys
	wireShares           // []Envelope: one sender's sealed coded shares
	wireDeliver          // []Envelope: the envelopes addressed to one client
	wireMasked           // MaskedMsg: y_i = x_i + z_i
	wireSurvivors        // []uint64: ids that uploaded
	wireAggShare         // AggShareMsg: Σ_{i∈survivors} f_i(α_me)
	wireResult           // []field.Element: the aggregate
)

// Program lays the server's round out as a stage table over its Add*/Seal*
// methods; sum receives the aggregate when the last step seals. Every
// message that names its sender gets the link-verified one stamped over it
// (engine.Stamped) — a spoofed From would credit an upload to another
// client, or feed a share under the wrong rank into the recovery.
func (s *Server) Program(sum *[]field.Element) engine.ServerProgram {
	ids := s.cfg.ClientIDs
	var survivors []uint64
	steps := []engine.ServerStep{{
		Name: StageAdvertise.String(), Tag: wireAdvertise,
		Apply: engine.Stamped(s.AddAdvertise, func(m *AdvertiseMsg) *uint64 { return &m.From }),
		Preseed: func() error {
			roster := s.session.RosterFor(ids)
			if roster == nil {
				return fmt.Errorf("lightsecagg: no cached roster for this client set")
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
				s.session.StoreRoster(roster, ids)
			}
			return engine.Downlink{Tag: wireRoster, To: ids, Body: roster}, err
		},
	}, {
		// Sealed envelopes route into recipient outboxes on arrival.
		Name: StageShares.String(), Tag: wireShares,
		Apply: func(from uint64, body any) error {
			return s.AddShareBundle(from, body.([]Envelope))
		},
		Seal: func() (engine.Downlink, error) {
			deliveries, err := s.SealShareBundles()
			return engine.Downlink{Tag: wireDeliver, To: ids, Each: func(id uint64) any { return deliveries[id] }}, err
		},
	}, {
		// Masked inputs fold into the running partial aggregate as they
		// arrive; the stage close is a threshold check plus sort.
		Name: StageMaskedInput.String(), Tag: wireMasked,
		Apply: engine.Stamped(s.AddMasked, func(m *MaskedMsg) *uint64 { return &m.From }),
		Seal: func() (engine.Downlink, error) {
			var err error
			survivors, err = s.SealMasked()
			return engine.Downlink{Tag: wireSurvivors, To: survivors, Body: survivors}, err
		},
	}, {
		// One-shot recovery: any U aggregate shares complete the stage,
		// stragglers need not be waited out; the seal interpolates the
		// mask sum.
		Name: StageAggShare.String(), Tag: wireAggShare,
		QuorumMet: func() bool { return len(s.aggOrder) >= s.cfg.RecoveryThreshold() },
		Apply:     engine.Stamped(s.AddAggShare, func(m *AggShareMsg) *uint64 { return &m.From }),
		Seal: func() (engine.Downlink, error) {
			var err error
			*sum, err = s.SealAggShares()
			return engine.Downlink{Tag: wireResult, To: survivors, Body: *sum}, err
		},
	}}
	return engine.ServerProgram{Roster: ids, Steps: steps}
}

// Program lays the client's round out as a stage table over its stage
// methods; sum receives the aggregate when the result arrives (it stays
// nil for a client that drops or is excluded from the result broadcast).
func (c *Client) Program(input []field.Element, sum *[]field.Element) engine.ClientProgram {
	resumed := false
	steps := []engine.ClientStep{{
		Name: StageAdvertise.String(), Await: engine.NoTag, Send: wireAdvertise,
		Do: func(any) (any, error) { return c.Advertise(), nil },
	}, {
		Name: StageShares.String(), Await: wireRoster, Send: wireShares,
		Cached: func() (any, error) {
			if roster := c.session.Roster(); roster != nil {
				resumed = true
				return roster, nil
			}
			return nil, fmt.Errorf("lightsecagg: no cached roster")
		},
		Do: func(body any) (any, error) {
			roster := body.([]AdvertiseMsg)
			if !resumed {
				c.session.StoreRoster(roster)
			}
			return c.SealShares(roster)
		},
	}, {
		Name: StageMaskedInput.String(), Await: wireDeliver, Send: wireMasked,
		Do: func(body any) (any, error) {
			if err := c.OpenEnvelopes(body.([]Envelope)); err != nil {
				return nil, err
			}
			y, err := c.MaskedInput(input)
			return MaskedMsg{From: c.id, Y: y}, err
		},
	}, {
		Name: StageAggShare.String(), Await: wireSurvivors, Send: wireAggShare,
		Do: func(body any) (any, error) {
			s, err := c.AggregateShare(body.([]uint64))
			return AggShareMsg{From: c.id, S: s}, err
		},
	}, {
		Name: "result", Await: wireResult, Send: engine.NoTag,
		Do: func(body any) (any, error) {
			*sum = body.([]field.Element)
			return nil, nil
		},
	}}
	return engine.ClientProgram{ID: c.id, Steps: steps}
}
