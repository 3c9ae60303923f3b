package lightsecagg

import (
	"fmt"
	"io"
	"slices"

	"repro/internal/engine"
	"repro/internal/field"
)

// In-process driver: one full LightSecAgg round as a plain loop over its
// four stages. Each stage runs its live clients' steps on engine.ForEach, then
// feeds the server their messages in id order and seals. Coded mask shares
// relay through the untrusted server (the star topology of §3.3) inside
// pairwise AEAD envelopes keyed by X25519 agreement — otherwise the server
// could collect U of them and unmask every client — so the session layer's
// channel-secret cache is observable.

// Stage identifies a point in the client lifecycle, for dropout
// injection and in errors.
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

// live returns the clients still alive at the stage, in id order.
func (d DropSchedule) live(s Stage, clients []*Client) []*Client {
	return slices.DeleteFunc(slices.Clone(clients), func(c *Client) bool { return !d.Participates(c.id, s) })
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
	if sess == nil { // a standalone round: every party gets a throwaway session
		sess = &RoundSessions{Server: NewServerSession()}
	}
	// The parties are built on the cfg validated above, not validated
	// again once per party.
	server := newServer(cfg, sess.Server)
	var err error
	ids := cfg.ClientIDs
	shared := engine.SharedReader(rand)
	clients := make([]*Client, len(ids))
	for rank, id := range ids {
		if _, ok := inputs[id]; !ok {
			return nil, fmt.Errorf("lightsecagg: no input for client %d", id)
		}
		if clients[rank], err = newClient(cfg, id, shared, sess.Client[id]); err != nil {
			return nil, err
		}
	}

	// Advertise, or install the roster the last sealed advertise stage
	// cached: every client still holds the keys it lists.
	var roster []AdvertiseMsg
	if sess.resumable(cfg) {
		roster = sess.Server.RosterFor(ids)
		err = server.InstallRoster(roster)
	} else {
		roster, err = stage(StageAdvertise, drops.live(StageAdvertise, clients),
			func(c *Client) (AdvertiseMsg, error) { return c.Advertise(), nil },
			func(_ uint64, m AdvertiseMsg) error { return server.AddAdvertise(m) },
			server.SealAdvertise)
		if err == nil {
			sess.Server.StoreRoster(roster, ids)
		}
	}
	if err != nil {
		return nil, err
	}

	deliveries, err := stage(StageShares, drops.live(StageShares, clients),
		func(c *Client) ([]Envelope, error) { return c.SealShares(roster) },
		server.AddShareBundle, server.SealShareBundles)
	if err != nil {
		return nil, err
	}

	survivors, err := stage(StageMaskedInput, drops.live(StageMaskedInput, clients),
		func(c *Client) ([]field.Element, error) {
			if err := c.OpenEnvelopes(deliveries[c.id]); err != nil {
				return nil, err
			}
			return c.MaskedInput(inputs[c.id])
		},
		func(id uint64, y []field.Element) error { return server.AddMasked(MaskedMsg{From: id, Y: y}) },
		server.SealMasked)
	if err != nil {
		return nil, err
	}

	// One-shot recovery needs any U responses: the first U live survivors
	// in id order answer, and the rest are not asked.
	responders := make([]*Client, 0, cfg.RecoveryThreshold())
	for _, c := range drops.live(StageAggShare, clients) {
		if _, ok := slices.BinarySearch(survivors, c.id); ok && len(responders) < cap(responders) {
			responders = append(responders, c)
		}
	}
	return stage(StageAggShare, responders,
		func(c *Client) ([]field.Element, error) { return c.AggregateShare(survivors) },
		func(id uint64, s []field.Element) error { return server.AddAggShare(AggShareMsg{From: id, S: s}) },
		server.SealAggShares)
}

// stage runs step for every client in live on engine.ForEach's workers,
// which claim clients from one counter so a slow client holds up only its
// own worker, then hands the outputs to add in live's order on the calling
// goroutine and returns seal's result. A failed step aborts the stage
// before any add, as the first failure in live's order, naming its client
// and the stage.
func stage[T, S any](s Stage, live []*Client, step func(*Client) (T, error),
	add func(id uint64, out T) error, seal func() (S, error)) (S, error) {

	outs := make([]T, len(live))
	err := engine.ForEach(len(live), func(i int) (err error) {
		if outs[i], err = step(live[i]); err != nil {
			err = fmt.Errorf("client %d %s: %w", live[i].id, s, err)
		}
		return err
	})
	if err != nil {
		return *new(S), err
	}
	for i, c := range live {
		if err := add(c.id, outs[i]); err != nil {
			return *new(S), err
		}
	}
	return seal()
}
