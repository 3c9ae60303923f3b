package main

import (
	"crypto/rand"
	"fmt"
	"time"

	"repro/internal/field"
	"repro/internal/lightsecagg"
	"repro/internal/ring"
	"repro/internal/secagg"
	"repro/internal/secaggplus"
)

// The stepped drivers walk the exported client and server state machines
// of a substrate one call at a time, on one goroutine, on the workload's
// own configuration and drop schedule, and time every call. They say what
// a round's protocol work costs when nothing overlaps — the figure the
// concurrent round is to be compared with — and which stage it sits in.
//
// They mirror the drivers in internal/secagg/run.go,
// internal/lightsecagg/run.go and internal/core/wire.go stage for stage;
// where those change the order of calls, these must follow.

// stageTimes accumulates the timed calls of one logical round (all of its
// chunks or shards).
type stageTimes struct {
	perClient map[string]float64 // summed over every client's calls; reported ÷ clients
	perRound  map[string]float64 // reported as summed
}

func newStageTimes() *stageTimes {
	return &stageTimes{perClient: make(map[string]float64), perRound: make(map[string]float64)}
}

func timed(into map[string]float64, metric string, fn func() error) error {
	t0 := time.Now()
	err := fn()
	into[metric] += time.Since(t0).Seconds()
	return err
}

// client times a call every client makes; the metric is what one client
// spends in that stage per round, on average.
func (st *stageTimes) client(metric string, fn func() error) error {
	return timed(st.perClient, metric, fn)
}

// server times work that happens once per round however many clients
// there are; the metric is its total per round.
func (st *stageTimes) server(metric string, fn func() error) error {
	return timed(st.perRound, metric, fn)
}

// metrics reduces the round to its rows.
func (st *stageTimes) metrics(clients int) map[string]float64 {
	out := make(map[string]float64, len(st.perClient)+len(st.perRound))
	for k, v := range st.perClient {
		out[k] = v / float64(clients)
	}
	for k, v := range st.perRound {
		out[k] = v
	}
	return out
}

// secaggStep is one (sub-)round of the SecAgg state machines.
type secaggStep struct {
	cfg    secagg.Config
	inputs map[uint64]ring.Vector
	drops  secagg.DropSchedule
	// sessions, when non-nil, amortize key agreement as core.RunRound's
	// pool and the wire handshake do.
	client map[uint64]*secagg.Session
	server *secagg.ServerSession
	// resume skips the advertise stage on the cached roster; divergent
	// makes the resume partial (those members re-advertise).
	resume    bool
	divergent []uint64
	// wire applies the wire driver's unmask count quorum.
	wire bool
}

func (st *stageTimes) secagg(s secaggStep) (*secagg.Result, error) {
	const (
		cAdv, cShare, cMask = "secagg.client.advertise_s", "secagg.client.sharekeys_s", "secagg.client.masked_s"
		cCons, cUnmask      = "secagg.client.consistency_s", "secagg.client.unmask_s"
		cNoise              = "secagg.client.noiseshares_s"
		sAdv, sShare, sMask = "secagg.server.advertise_s", "secagg.server.shares_s", "secagg.server.masked_s"
		sCons, sUnmask      = "secagg.server.consistency_s", "secagg.server.unmask_s"
		sNoise, sFinal      = "secagg.server.noiseshares_s", "secagg.server.finalize_s"
	)
	ids := s.cfg.ClientIDs
	alive := func(id uint64, stage secagg.Stage) bool { return s.drops.Participates(id, stage) }
	isDivergent := make(map[uint64]bool, len(s.divergent))
	for _, id := range s.divergent {
		isDivergent[id] = true
	}
	partial := s.resume && len(s.divergent) > 0

	server, err := secagg.NewSessionServer(s.cfg, s.server)
	if err != nil {
		return nil, err
	}
	clients := make(map[uint64]*secagg.Client, len(ids))

	// Stage 0: construct every client; advertise, or skip on a resume.
	var adverts []secagg.AdvertiseMsg
	for _, id := range ids {
		if !alive(id, secagg.StageAdvertiseKeys) {
			continue
		}
		err := st.client(cAdv, func() error {
			c, err := secagg.NewSessionClient(s.cfg, id, s.inputs[id], nil, rand.Reader, s.client[id])
			if err != nil {
				return err
			}
			clients[id] = c
			if s.resume && !isDivergent[id] {
				return c.SkipAdvertise()
			}
			adv, err := c.AdvertiseKeys()
			adverts = append(adverts, adv)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("client %d advertise: %w", id, err)
		}
	}
	var roster []secagg.AdvertiseMsg
	err = st.server(sAdv, func() error {
		if s.resume && !partial {
			if roster = s.server.RosterFor(ids); roster == nil {
				return fmt.Errorf("resume without a cached roster")
			}
			return server.InstallRoster(roster)
		}
		if partial {
			for _, m := range s.server.RosterFor(ids) {
				if err := server.AddAdvertise(m); err != nil {
					return err
				}
			}
		}
		for _, m := range adverts {
			if err := server.AddAdvertise(m); err != nil {
				return err
			}
		}
		var err error
		if roster, err = server.SealAdvertise(); err != nil {
			return err
		}
		if s.server != nil {
			s.server.StoreRoster(roster, ids)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Stage 1: ShareKeys.
	for _, m := range roster {
		id := m.From
		if !alive(id, secagg.StageShareKeys) {
			continue
		}
		var cts []secagg.EncryptedShareMsg
		if err := st.client(cShare, func() (err error) {
			cts, err = clients[id].ShareKeys(roster)
			return err
		}); err != nil {
			return nil, fmt.Errorf("client %d share keys: %w", id, err)
		}
		if err := st.server(sShare, func() error { return server.AddShare(id, cts) }); err != nil {
			return nil, err
		}
	}
	var deliveries map[uint64][]secagg.EncryptedShareMsg
	if err := st.server(sShare, func() (err error) {
		deliveries, err = server.SealShares()
		return err
	}); err != nil {
		return nil, err
	}

	// Stage 2: MaskedInputCollection.
	for _, id := range ids {
		delivered, ok := deliveries[id]
		if !ok || !alive(id, secagg.StageMaskedInput) {
			continue
		}
		var masked secagg.MaskedInputMsg
		if err := st.client(cMask, func() (err error) {
			masked, err = clients[id].MaskedInput(delivered)
			return err
		}); err != nil {
			return nil, fmt.Errorf("client %d masked input: %w", id, err)
		}
		if err := st.server(sMask, func() error { return server.AddMasked(masked) }); err != nil {
			return nil, err
		}
	}
	var u3 []uint64
	if err := st.server(sMask, func() (err error) {
		u3, err = server.SealMasked()
		return err
	}); err != nil {
		return nil, err
	}

	// Stage 3: ConsistencyCheck.
	for _, id := range u3 {
		if !alive(id, secagg.StageConsistencyCheck) {
			continue
		}
		var cons secagg.ConsistencyMsg
		if err := st.client(cCons, func() (err error) {
			cons, err = clients[id].ConsistencyCheck(u3)
			return err
		}); err != nil {
			return nil, fmt.Errorf("client %d consistency: %w", id, err)
		}
		if err := st.server(sCons, func() error { return server.AddConsistency(cons) }); err != nil {
			return nil, err
		}
	}
	var req secagg.UnmaskRequest
	if err := st.server(sCons, func() (err error) {
		req, err = server.SealConsistency()
		return err
	}); err != nil {
		return nil, err
	}

	// Stage 4: Unmasking. Every live client answers; over the wire the
	// server stops listening at the count quorum.
	quorum := 0
	if s.wire {
		quorum = s.cfg.UnmaskQuorum()
	}
	admitted := 0
	for _, id := range req.U4 {
		if !alive(id, secagg.StageUnmasking) {
			continue
		}
		var um secagg.UnmaskMsg
		if err := st.client(cUnmask, func() (err error) {
			um, err = clients[id].Unmask(req)
			return err
		}); err != nil {
			return nil, fmt.Errorf("client %d unmask: %w", id, err)
		}
		if quorum > 0 && admitted >= quorum {
			continue
		}
		admitted++
		if err := st.server(sUnmask, func() error { return server.AddUnmask(um) }); err != nil {
			return nil, err
		}
	}
	var noiseReq *secagg.NoiseShareRequest
	if err := st.server(sUnmask, func() (err error) {
		noiseReq, err = server.SealUnmask()
		return err
	}); err != nil {
		return nil, err
	}

	// Stage 5: ExcessiveNoiseRemoval, when survivors died after stage 2.
	if noiseReq != nil {
		for _, id := range noiseReq.U5 {
			if !alive(id, secagg.StageNoiseRemoval) {
				continue
			}
			var ns secagg.NoiseShareMsg
			if err := st.client(cNoise, func() (err error) {
				ns, err = clients[id].RevealNoiseShares(*noiseReq)
				return err
			}); err != nil {
				return nil, fmt.Errorf("client %d noise shares: %w", id, err)
			}
			if err := st.server(sNoise, func() error { return server.AddNoiseShare(ns) }); err != nil {
				return nil, err
			}
		}
		if err := st.server(sNoise, server.SealNoiseShares); err != nil {
			return nil, err
		}
	}

	var res secagg.Result
	err = st.server(sFinal, func() (err error) {
		res, err = server.Finalize()
		return err
	})
	return &res, err
}

// lsaStep is one (sub-)round of the LightSecAgg state machines.
type lsaStep struct {
	cfg    lightsecagg.Config
	inputs map[uint64][]field.Element
	drops  lightsecagg.DropSchedule
	sess   *lightsecagg.RoundSessions
	resume bool
}

func (st *stageTimes) lightsecagg(s lsaStep) ([]field.Element, error) {
	const (
		cEncode, cSeal = "lightsecagg.client.encode_shares_s", "lightsecagg.client.seal_shares_s"
		cOpen, cMask   = "lightsecagg.client.open_envelopes_s", "lightsecagg.client.masked_s"
		cAgg           = "lightsecagg.client.agg_share_s"
		sMask, sRecov  = "lightsecagg.server.masked_s", "lightsecagg.server.recover_s"
	)
	ids := s.cfg.ClientIDs
	server, err := lightsecagg.NewSessionServer(s.cfg, s.sess.Server)
	if err != nil {
		return nil, err
	}
	clients := make(map[uint64]*lightsecagg.Client, len(ids))
	for _, id := range ids {
		if clients[id], err = lightsecagg.NewSessionClient(s.cfg, id, rand.Reader, s.sess.Client[id]); err != nil {
			return nil, err
		}
	}

	// Stage 0: advertise, skipped on the cached roster.
	var roster []lightsecagg.AdvertiseMsg
	if s.resume {
		if roster = s.sess.Server.RosterFor(ids); roster == nil {
			return nil, fmt.Errorf("resume without a cached roster")
		}
		if err := server.InstallRoster(roster); err != nil {
			return nil, err
		}
	} else {
		for _, id := range ids {
			if err := server.AddAdvertise(clients[id].Advertise()); err != nil {
				return nil, err
			}
		}
		if roster, err = server.SealAdvertise(); err != nil {
			return nil, err
		}
		s.sess.Server.StoreRoster(roster, ids)
	}

	// Stage 1: coded shares, sealed per peer. SealShares encodes inside;
	// the plain encoding is timed on its own once per sub-round, on the
	// first client, so the extra call stays out of the round's weight.
	if err := st.server(cEncode, func() error {
		_, err := clients[ids[0]].EncodeShares()
		return err
	}); err != nil {
		return nil, err
	}
	for _, id := range ids {
		var envs []lightsecagg.Envelope
		if err := st.client(cSeal, func() (err error) {
			envs, err = clients[id].SealShares(roster)
			return err
		}); err != nil {
			return nil, fmt.Errorf("client %d seal shares: %w", id, err)
		}
		if err := server.AddShareBundle(id, envs); err != nil {
			return nil, err
		}
	}
	deliveries, err := server.SealShareBundles()
	if err != nil {
		return nil, err
	}

	// Stage 2: open the envelopes, upload the masked input.
	for _, id := range ids {
		if !s.drops.Participates(id, lightsecagg.StageMaskedInput) {
			continue
		}
		if err := st.client(cOpen, func() error { return clients[id].OpenEnvelopes(deliveries[id]) }); err != nil {
			return nil, fmt.Errorf("client %d open envelopes: %w", id, err)
		}
		var y []field.Element
		if err := st.client(cMask, func() (err error) {
			y, err = clients[id].MaskedInput(s.inputs[id])
			return err
		}); err != nil {
			return nil, fmt.Errorf("client %d masked input: %w", id, err)
		}
		if err := st.server(sMask, func() error {
			return server.AddMasked(lightsecagg.MaskedMsg{From: id, Y: y})
		}); err != nil {
			return nil, err
		}
	}
	var survivors []uint64
	if err := st.server(sMask, func() (err error) {
		survivors, err = server.SealMasked()
		return err
	}); err != nil {
		return nil, err
	}

	// Stage 3: one-shot recovery. Every live survivor answers; the server
	// needs the first U.
	admitted := 0
	for _, id := range survivors {
		if !s.drops.Participates(id, lightsecagg.StageAggShare) {
			continue
		}
		var share []field.Element
		if err := st.client(cAgg, func() (err error) {
			share, err = clients[id].AggregateShare(survivors)
			return err
		}); err != nil {
			return nil, fmt.Errorf("client %d aggregate share: %w", id, err)
		}
		if admitted >= s.cfg.RecoveryThreshold() {
			continue
		}
		admitted++
		if err := st.server(sRecov, func() error {
			return server.AddAggShare(lightsecagg.AggShareMsg{From: id, S: share})
		}); err != nil {
			return nil, err
		}
	}
	var sum []field.Element
	err = st.server(sRecov, func() (err error) {
		sum, err = server.SealAggShares()
		return err
	})
	return sum, err
}

// steppedRound runs one logical round of the workload's substrate through
// the stepped driver and returns its stage times plus the process CPU the
// timed part consumed — the "busy" figure of secagg.parallel_efficiency.
// CPU rather than wall, because a single call may fan out to a worker
// pool (mask expansion, batched reconstruction) even when the driver
// itself is one goroutine.
func steppedRound(workload string, seed uint64, small bool, round int) (*stageTimes, float64, error) {
	st := newStageTimes()
	var busy float64
	var err error
	switch workload {
	case "flat_cold":
		busy, err = steppedFlatCold(st, seed, small, round)
	case "flat_session_tcp":
		busy, err = steppedSessionTCP(st, seed, small, round)
	case "sharded_mem":
		busy, err = steppedShardedMem(st, seed, small, round)
	case "lsa_dropout":
		busy, err = steppedLSADropout(st, seed, small, round)
	default:
		err = fmt.Errorf("no stepped driver for workload %q", workload)
	}
	return st, busy, err
}

// checkStepped is the stepped drivers' own oracle: without noise the
// state machines must produce Σ survivors' inputs exactly.
func checkStepped(res *secagg.Result, inputs map[uint64]ring.Vector, survivors []uint64, bits uint, dim int) error {
	if !sameIDs(res.Survivors, survivors) {
		return fmt.Errorf("stepped: survivors %v, want %v", res.Survivors, survivors)
	}
	return checkRingSum(res.Sum, ringSum(inputs, survivors, bits, dim))
}

// steppedFlatCold is core.RunRound's substrate work for flat_cold: fresh
// sessions, then one SecAgg+ sub-round per chunk on them — chunk 0
// advertises and agrees every key, chunks 1..7 resume on the cached
// roster and fork their masks by MaskEpoch. Encoding and XNoise are
// core's own work and are timed as kernels instead.
func steppedFlatCold(st *stageTimes, seed uint64, small bool, round int) (float64, error) {
	s := flatColdShape(small)
	ids := clientIDs(s.n)
	base, err := secaggplus.NewConfig(secagg.Config{Round: uint64(round), ClientIDs: ids,
		Threshold: s.threshold, Bits: 20}, 0)
	if err != nil {
		return 0, err
	}
	dropped, survivors := dropSplit(ids, s.dropEvery)
	drops := make(secagg.DropSchedule, len(dropped))
	for _, id := range dropped {
		drops[id] = secagg.StageMaskedInput
	}
	bounds := ring.ChunkBounds(s.dim, s.chunks)
	inputs := ringInputs(seed, ids, base.Bits, bounds[0][1]-bounds[0][0])

	cpu0 := processCPU()
	// The session pool generates every client's two key pairs up front;
	// that is the advertise stage's cost on this path.
	var sess *secagg.RoundSessions
	if err := st.client("secagg.client.advertise_s", func() (err error) {
		sess, err = secagg.NewRoundSessions(ids, rand.Reader)
		return err
	}); err != nil {
		return 0, err
	}
	for c, b := range bounds {
		cfg := base
		cfg.Round = uint64(round)*1000 + uint64(c)
		cfg.Dim = b[1] - b[0]
		cfg.MaskEpoch = uint64(c)
		res, err := st.secagg(secaggStep{cfg: cfg, inputs: inputs, drops: drops,
			client: sess.Client, server: sess.Server, resume: c > 0})
		if err != nil {
			return 0, fmt.Errorf("chunk %d: %w", c, err)
		}
		if err := checkStepped(res, inputs, survivors, cfg.Bits, cfg.Dim); err != nil {
			return 0, fmt.Errorf("chunk %d: %w", c, err)
		}
	}
	return processCPU() - cpu0, nil
}

// steppedSessionTCP is a steady-state flat_session_tcp round: an untimed
// cold round establishes every key, then one client loses its session and
// the timed round resumes partially around it, at ratchet step 1, with
// the wire driver's unmask quorum.
func steppedSessionTCP(st *stageTimes, seed uint64, small bool, round int) (float64, error) {
	cfg := sessionTCPConfig(small)
	ids := cfg.ClientIDs
	inputs := ringInputs(seed, ids, cfg.Bits, cfg.Dim)
	sess, err := secagg.NewRoundSessions(ids, rand.Reader)
	if err != nil {
		return 0, err
	}
	cfg.Round = 1
	if _, err := newStageTimes().secagg(secaggStep{cfg: cfg, inputs: inputs,
		client: sess.Client, server: sess.Server, wire: true}); err != nil {
		return 0, fmt.Errorf("cold round: %w", err)
	}
	// What the handshake does on a partial resume around one bounced
	// client (core.RunHandshakeServer / RunHandshakeClient).
	bounced := ids[(round-1)%len(ids)]
	if sess.Client[bounced], err = secagg.NewSession(rand.Reader); err != nil {
		return 0, err
	}
	div := []uint64{bounced}
	for _, id := range ids {
		if id != bounced {
			sess.Client[id].RekeyEdges(div)
		}
	}
	sess.Server.RekeyEdges(div)

	cpu0 := processCPU()
	cfg.Round, cfg.KeyRatchet = 2, 1
	res, err := st.secagg(secaggStep{cfg: cfg, inputs: inputs, client: sess.Client, server: sess.Server,
		resume: true, divergent: div, wire: true})
	if err != nil {
		return 0, err
	}
	return processCPU() - cpu0, checkStepped(res, inputs, ids, cfg.Bits, cfg.Dim)
}

// steppedShardedMem is the substrate work of one sharded_mem round: S
// cold-key shard rounds with in-protocol XNoise and transcript digests.
func steppedShardedMem(st *stageTimes, seed uint64, small bool, round int) (float64, error) {
	ids, _, cfgs, err := shardedConfigs(small)
	if err != nil {
		return 0, err
	}
	inputs := ringInputs(seed, ids, cfgs[0].Bits, cfgs[0].Dim)

	cpu0 := processCPU()
	for s, cfg := range cfgs {
		cfg.Round = uint64(round)
		cfg.TranscriptDigests = true
		res, err := st.secagg(secaggStep{cfg: cfg, inputs: inputs, wire: true})
		if err != nil {
			return 0, fmt.Errorf("shard %d: %w", s, err)
		}
		if !sameIDs(res.Survivors, cfg.ClientIDs) {
			return 0, fmt.Errorf("shard %d: stepped survivors %v", s, res.Survivors)
		}
		// Whether the noise is the right noise is the wire workload's
		// oracle's business; here the residual only has to be noise and
		// not a wrong sum, which in a 20-bit ring would be ~10^10.
		residual, err := ringResidual(ring.Vector{Bits: cfg.Bits, Data: res.Sum},
			ringSum(inputs, cfg.ClientIDs, cfg.Bits, cfg.Dim))
		if err != nil {
			return 0, err
		}
		if _, variance := residualStats(residual); variance > 2*cfg.XNoise.AchievedVariance(0) {
			return 0, fmt.Errorf("shard %d: stepped residual variance %.1f", s, variance)
		}
	}
	return processCPU() - cpu0, nil
}

// steppedLSADropout is core.RunRound's substrate work for lsa_dropout:
// fresh sessions, then one LightSecAgg sub-round per chunk on them.
func steppedLSADropout(st *stageTimes, seed uint64, small bool, round int) (float64, error) {
	s := lsaDropoutShape(small)
	ids := clientIDs(s.n)
	drops := make(lightsecagg.DropSchedule)
	for _, id := range everyKth(ids, s.dropEvery) {
		drops[id] = lightsecagg.StageMaskedInput
	}
	bounds := ring.ChunkBounds(s.dim, s.chunks)
	dim := bounds[0][1] - bounds[0][0]
	// core lifts 20-bit ring values into the field.
	lifted := make(map[uint64][]field.Element, len(ids))
	want := make([]field.Element, dim)
	for id, v := range ringInputs(seed, ids, 20, dim) {
		xs := make([]field.Element, dim)
		for j, w := range v.Data {
			xs[j] = field.New(w)
			if drops.Participates(id, lightsecagg.StageMaskedInput) {
				want[j] = field.Add(want[j], xs[j])
			}
		}
		lifted[id] = xs
	}

	cpu0 := processCPU()
	sess, err := lightsecagg.NewRoundSessions(ids, rand.Reader)
	if err != nil {
		return 0, err
	}
	for c, b := range bounds {
		if b[1]-b[0] != dim {
			return 0, fmt.Errorf("chunk %d: uneven chunk", c)
		}
		cfg := lightsecagg.Config{ClientIDs: ids, PrivacyT: s.n - s.threshold, Dropout: s.n - s.threshold,
			Dim: dim, Round: uint64(round)*1000 + uint64(c)}
		sum, err := st.lightsecagg(lsaStep{cfg: cfg, inputs: lifted, drops: drops, sess: sess, resume: c > 0})
		if err != nil {
			return 0, fmt.Errorf("chunk %d: %w", c, err)
		}
		for j := range want {
			if sum[j] != want[j] {
				return 0, fmt.Errorf("chunk %d: stepped sum differs from the plaintext sum at %d", c, j)
			}
		}
	}
	return processCPU() - cpu0, nil
}
