package core

import (
	"fmt"
	"io"
	"math/bits"
	"runtime"

	"repro/internal/engine"
	"repro/internal/field"
	"repro/internal/lightsecagg"
	"repro/internal/pipeline"
	"repro/internal/prg"
	"repro/internal/ring"
	"repro/internal/secagg"
	"repro/internal/secaggplus"
	"repro/internal/skellam"
	"repro/internal/transport"
	"repro/internal/xnoise"
)

// Protocol selects the secure-aggregation substrate.
type Protocol int

// The protocol substrates. ProtocolAuto is the zero value, so round
// configs that do not pin a substrate scale automatically: classic SecAgg
// below SecAggPlusAutoMin sampled clients, SecAgg+ at the recommended
// O(log n) degree at or above it — the complete graph's O(n²) key
// agreements dominate the round well before 64 clients. Note that on the
// SecAgg+ substrate a Threshold larger than the neighborhood is re-derived
// to the per-neighborhood reconstruction threshold (secaggplus.NewConfig);
// callers whose dropout-security margin depends on the configured global
// threshold should pin ProtocolSecAgg explicitly. RoundResult.Protocol
// reports the substrate a round actually used.
//
// ProtocolLightSecAgg runs the chunks on the LightSecAgg baseline
// (internal/lightsecagg): one-shot aggregate-mask recovery instead of
// per-dropout Shamir reconstruction, at the price of offline share
// traffic that grows with the model (§2.3.2). Threshold keeps its
// response-count semantics (U = Threshold aggregate shares complete the
// recovery) and must exceed n/2; the collusion-privacy threshold becomes
// T = n − Threshold — symmetric with the dropout tolerance D = n −
// Threshold, the standard LightSecAgg instantiation — which is weaker
// than SecAgg's Threshold−1, so pinning this substrate is an explicit
// opt-in to that trade. ProtocolAuto never resolves here on its own: the
// choice needs a dropout forecast only the deployment has. It is the
// paper's baseline and runs in process only; the wire handshake refuses it
// (ErrProtocolNotOnWire).
const (
	ProtocolAuto Protocol = iota
	ProtocolSecAgg
	ProtocolSecAggPlus
	ProtocolLightSecAgg
)

// SecAggPlusAutoMin is the sampled-set size at which ProtocolAuto switches
// from classic SecAgg to the SecAgg+ sparse-graph substrate.
const SecAggPlusAutoMin = 32

// ResolveProtocol maps ProtocolAuto to the recommended substrate for n
// sampled clients; pinned protocols pass through unchanged.
func ResolveProtocol(p Protocol, n int) Protocol {
	if p != ProtocolAuto {
		return p
	}
	if n >= SecAggPlusAutoMin {
		return ProtocolSecAggPlus
	}
	return ProtocolSecAgg
}

// String implements fmt.Stringer.
func (p Protocol) String() string {
	switch p {
	case ProtocolSecAggPlus:
		return "secagg+"
	case ProtocolSecAgg:
		return "secagg"
	case ProtocolLightSecAgg:
		return "lightsecagg"
	case ProtocolAuto:
		return "auto"
	default:
		return fmt.Sprintf("protocol(%d)", int(p))
	}
}

// RoundConfig configures one Dordis aggregation round (paper Fig. 7,
// steps 2–4: pipeline preparation, client processing, server aggregation).
type RoundConfig struct {
	Round     uint64
	Protocol  Protocol
	Codec     skellam.Params
	Threshold int
	// Chunks is the pipeline chunk count m (1 = plain execution, at most
	// maxChunks). Nothing sets it but the caller; pipeline.OptimalChunks
	// can propose a value but no round path consults it yet (ROADMAP's
	// "pipelining must pay" direction).
	Chunks int
	// XNoise enables add-then-remove enforcement with tolerance T and
	// central target TargetMu (grid units). Tolerance 0 means no DP noise
	// at all (plain secure aggregation), so Validate refuses a TargetMu
	// without a tolerance rather than silently dropping it.
	Tolerance int
	TargetMu  float64
	// Sampler draws the XNoise components; nil is noise epoch 0's
	// (xnoise.SamplerForEpoch).
	Sampler xnoise.Sampler
	// Seed drives the encoding's randomness: the per-client rounding
	// streams. The XNoise seeds are not derived from it: RunRound draws
	// them from its rand, as a wire client does
	// (secagg.NewSessionClient), so the config does not give away the
	// noise the server must not remove.
	Seed prg.Seed
	// DropSchedule injects per-stage dropouts: id → the protocol stage
	// *before* which the client vanishes (secagg.DropSchedule semantics).
	// Clients dropping before MaskedInput are excluded from the aggregate;
	// clients dropping at a later stage (e.g. StageUnmasking) are included
	// — their update and noise are in the sum and the removal accounts for
	// them. The drops argument of RunRound remains the shorthand for the
	// paper's §6.1 model (drop before MaskedInput) and merges into this.
	DropSchedule secagg.DropSchedule
	// Sessions, when non-nil, amortizes X25519 key agreement across the
	// round's chunks: one key generation serves them all (agree once per
	// pair, each chunk masking with its window of the pair's one stream)
	// and lives for this round only. nil runs every chunk with fresh keys
	// — the historical behavior.
	Sessions *SessionPool
}

// maxChunks bounds RoundConfig.Chunks: a chunk's sub-round id is
// Round·maxChunks + chunk (subRound), so a larger count would give a late
// chunk of one round the id of an early chunk of the next.
const maxChunks = 1000

// subRound is the substrate round id of one chunk of a round. It is what
// separates the chunks' mask streams and — on a LightSecAgg session the
// chunks share, whose channel keys are static — the only thing in the
// envelope AD that keeps one chunk's sealed shares from replaying into
// another's.
func subRound(round uint64, chunk int) uint64 { return round*maxChunks + uint64(chunk) }

// Validate checks the configuration.
func (c RoundConfig) Validate() error {
	if err := c.Codec.Validate(); err != nil {
		return err
	}
	if c.Protocol < ProtocolAuto || c.Protocol > ProtocolLightSecAgg {
		return fmt.Errorf("core: unknown %v", c.Protocol)
	}
	for id, st := range c.DropSchedule {
		if st < secagg.StageAdvertiseKeys || st > secagg.StageNoiseRemoval {
			return fmt.Errorf("core: client %d scheduled to drop before %v, which is no stage", id, st)
		}
	}
	if c.Sessions != nil && c.Sessions.keyRounds > 1 {
		return fmt.Errorf("core: a session pool of %d key rounds: in process a key generation lives one round; "+
			"longer lifetimes are negotiated by the re-key handshake (HandshakeConfig.KeyRounds)", c.Sessions.keyRounds)
	}
	if c.Chunks < 1 || c.Chunks > maxChunks {
		return fmt.Errorf("core: chunks %d outside [1, %d]", c.Chunks, maxChunks)
	}
	if c.Tolerance < 0 {
		return fmt.Errorf("core: tolerance %d < 0", c.Tolerance)
	}
	if c.Tolerance > 0 && c.TargetMu <= 0 {
		return fmt.Errorf("core: XNoise requires TargetMu > 0")
	}
	if c.Tolerance == 0 && c.TargetMu != 0 {
		return fmt.Errorf("core: TargetMu %v without a tolerance would add no noise", c.TargetMu)
	}
	return nil
}

// sampler returns the configured noise sampler, or noise epoch 0's.
func (c RoundConfig) sampler() xnoise.Sampler {
	if c.Sampler != nil {
		return c.Sampler
	}
	return xnoise.SamplerForEpoch(0)
}

// RoundResult is the outcome of one aggregation round.
type RoundResult struct {
	// Sum is the decoded aggregate (model units): Σ survivors' clipped
	// updates plus DP noise at the enforced level.
	Sum []float64
	// Survivors and Dropped partition the sampled set by whether the
	// client's update is in the aggregate (it reached the masked-input
	// stage). LateDropped ⊆ Survivors lists clients that uploaded their
	// masked input but vanished at a later stage (e.g. before unmasking).
	Survivors   []uint64
	Dropped     []uint64
	LateDropped []uint64
	// Chunks is the chunk count executed.
	Chunks int
	// Protocol is the substrate actually used (ProtocolAuto resolved).
	Protocol Protocol
}

// RunRound executes one full Dordis round in-process with pipeline
// parallelism: the model update is DSkellam-encoded, split into m chunks,
// and each chunk-aggregation task flows through the three-resource
// pipeline (client compute → protocol exchange → server compute) on the
// real pipeline.Executor. XNoise addition and removal wrap the secure
// aggregation per chunk, exercising the "self-contained and complementary"
// deployment mode of §3.3.
//
// updates maps sampled client ids to raw model updates (model units,
// length Codec.Dim). drops lists clients that vanish before uploading
// (they still complete ShareKeys, matching the §6.1 dropout model).
func RunRound(cfg RoundConfig, updates map[uint64][]float64, drops []uint64, rand io.Reader) (*RoundResult, error) {
	p, err := runRoundRing(cfg, updates, drops, rand)
	if err != nil {
		return nil, err
	}
	sum, err := skellam.Decode(cfg.Codec, p.Sum)
	if err != nil {
		return nil, err
	}
	return &RoundResult{Sum: sum, Survivors: p.Survivors, Dropped: p.Dropped,
		LateDropped: p.LateDropped, Chunks: p.Chunks, Protocol: p.Protocol}, nil
}

// roundPartial is the ring-level outcome of one in-process round: the
// aggregate *before* Skellam decoding — masks cancelled, dropouts
// adjusted, excess XNoise components removed — plus its accounting.
type roundPartial struct {
	Sum                             ring.Vector
	Survivors, Dropped, LateDropped []uint64
	Chunks                          int
	Protocol                        Protocol
}

// newPlusConfig is secaggplus.NewConfig; a test swaps it to count graph calls.
var newPlusConfig = secaggplus.NewConfig

// newSecAggSessions and newLightSecAggSessions are the substrates'
// NewRoundSessions; a test swaps them to keep a round's sessions.
var (
	newSecAggSessions      = secagg.NewRoundSessions
	newLightSecAggSessions = lightsecagg.NewRoundSessions
)

// slabs is the free list runRoundRing leases its encoding slab from
// (ARCHITECTURE.md "Round scratch"): two flat_cold slabs (64 × 16384 words)
// at most. As for frames, a lease rounds up to a size class and a release
// that would pass the bound is dropped, so a process keeps its first slab
// shapes rather than its latest.
var slabs = transport.NewFreeList[uint64](2<<20, 2<<20)

// runRoundRing is RunRound's body up to the decode.
func runRoundRing(cfg RoundConfig, updates map[uint64][]float64, drops []uint64, rand io.Reader) (*roundPartial, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ids := transport.SortedKeys(updates)
	if len(ids) < 2 {
		return nil, fmt.Errorf("core: need at least 2 clients, got %d", len(ids))
	}
	// Merge the shorthand drops list (§6.1 model: vanish before the masked
	// upload) into the per-stage schedule.
	schedule := make(secagg.DropSchedule, len(cfg.DropSchedule)+len(drops))
	for id, st := range cfg.DropSchedule {
		if _, ok := updates[id]; !ok {
			return nil, fmt.Errorf("core: scheduled dropout %d not in sampled set", id)
		}
		schedule[id] = st
	}
	for _, id := range drops {
		if _, ok := updates[id]; !ok {
			return nil, fmt.Errorf("core: dropped client %d not in sampled set", id)
		}
		if _, ok := schedule[id]; !ok {
			schedule[id] = secagg.StageMaskedInput
		}
	}
	// A client is aggregated iff it reaches the masked-input stage; only
	// earlier drops dent the noise level and count against the tolerance.
	aggregated := func(id uint64) bool {
		return schedule.Participates(id, secagg.StageMaskedInput)
	}
	numDropped := 0
	for id := range schedule {
		if !aggregated(id) {
			numDropped++
		}
	}
	if cfg.Tolerance > 0 && numDropped > cfg.Tolerance {
		return nil, fmt.Errorf("core: %d dropouts exceed tolerance %d", numDropped, cfg.Tolerance)
	}

	// XNoise plan for the round (per-coordinate variances, so identical
	// across chunks).
	var plan *xnoise.Plan
	if cfg.Tolerance > 0 {
		plan = &xnoise.Plan{
			NumClients:       len(ids),
			DropoutTolerance: cfg.Tolerance,
			Threshold:        cfg.Threshold,
			TargetVariance:   cfg.TargetMu,
		}
		if err := plan.Validate(); err != nil {
			return nil, err
		}
	}

	// Encode every client's update once (the rotation spans the whole
	// vector) into one slab the round leases; a chunk input is a window of
	// it (ARCHITECTURE.md, "Round scratch"). The rounding streams fork here
	// in client order, since Fork reads its parent; encodeSlab then fills
	// the rows on every core. Releasing the slab on every return path is
	// safe: (1) ex.Run returns only after every resource loop has exited;
	// (2) the substrates only read their windows; (3) no result aliases it —
	// a chunk sum is the secagg server's or runLightSecAggChunk's own, and
	// ring.Concat copies; (4) EncodeInto writes every word of its row before
	// any chunk reads it, so a reused slab needs no zeroing.
	pd := cfg.Codec.PaddedDim()
	slab := slabs.Lease(len(ids) * pd) // client i's encoding is slab[i·pd : (i+1)·pd]
	defer slabs.Release(slab)
	encStream := prg.NewStream(prg.NewSeed(cfg.Seed[:], []byte("encode")))
	rounding := make([]*prg.Stream, len(ids))
	for i, id := range ids {
		rounding[i] = encStream.Fork(fmt.Sprintf("c%d", id))
	}
	if err := encodeSlab(cfg.Codec, slab, ids, updates, rounding); err != nil {
		return nil, err
	}
	m := cfg.Chunks
	bounds := ring.ChunkBounds(pd, m)
	m = len(bounds)

	// Per-round XNoise: one ClientNoise per client, its seeds drawn from
	// rand as secagg.NewSessionClient draws them on the wire. Each chunk's
	// stageClient reads the next chunk-length of every survivor's
	// components, and stageServer the same windows of the removed ones
	// through one reader — the executor runs each stage's chunks one at a
	// time in ascending order, so both sides read identical windows.
	sampler := cfg.sampler()
	var noise []*xnoise.ClientNoise
	var removal *xnoise.NoiseReader
	if plan != nil {
		removed := plan.RemovalComponents(numDropped)
		noise = make([]*xnoise.ClientNoise, len(ids))
		seeds := make(map[uint64]map[int]field.Element, len(ids)-numDropped)
		for i, id := range ids {
			cn, err := xnoise.NewClientNoise(*plan, rand)
			if err != nil {
				return nil, err
			}
			noise[i] = cn
			if aggregated(id) {
				byK := make(map[int]field.Element, len(removed))
				for _, k := range removed {
					byK[k] = cn.Seeds[k]
				}
				seeds[id] = byK
			}
		}
		var err error
		if removal, err = xnoise.NewRemovalReader(*plan, sampler, seeds, numDropped); err != nil {
			return nil, err
		}
	}

	// Build the per-chunk protocol config; validated once, its copies share one neighbour memo.
	proto := ResolveProtocol(cfg.Protocol, len(ids))
	longest := bounds[m-1][1] - bounds[m-1][0] // ChunkBounds gives the extra coordinates to the last chunks
	baseCfg := secagg.Config{
		Round:     cfg.Round,
		ClientIDs: ids,
		Threshold: cfg.Threshold,
		Bits:      cfg.Codec.Bits,
		Dim:       longest,
	}
	var lsaCfg lightsecagg.Config
	var err error
	switch proto {
	case ProtocolSecAggPlus:
		if baseCfg, err = newPlusConfig(baseCfg, secaggplus.RecommendedDegree(len(ids))); err == nil {
			err = baseCfg.Validate()
		}
	case ProtocolLightSecAgg:
		// U = Threshold responses complete the one-shot recovery;
		// T = D = n − Threshold (the symmetric LightSecAgg instantiation),
		// so the coded pieces have length d/(2·Threshold − n), and
		// Validate's U > T refuses Threshold ≤ n/2.
		lsaCfg = lightsecagg.Config{
			ClientIDs: ids,
			PrivacyT:  len(ids) - cfg.Threshold,
			Dropout:   len(ids) - cfg.Threshold,
			Dim:       longest,
			Round:     cfg.Round,
		}
		err = lsaCfg.Validate()
		// Aggregation reads ring residues as GF(2^61−1) elements in place
		// and sums exactly, so n·(2^Bits−1) must not wrap the field.
		if err == nil && int(cfg.Codec.Bits)+bits.Len(uint(len(ids))) > 61 {
			err = fmt.Errorf("core: lightsecagg substrate: %d-bit ring with %d clients overflows GF(2^61−1)",
				cfg.Codec.Bits, len(ids))
		}
	default:
		err = baseCfg.Validate()
	}
	if err != nil {
		return nil, err
	}

	// Key-agreement amortization: one session set serves every chunk of
	// this round and no other, so pairwise X25519 agreement happens n·k
	// times per round instead of m·n·k. On the secagg substrates the
	// chunks' masks are independent through the per-chunk MaskEpoch
	// window; on lightsecagg, masks are drawn fresh per chunk and the
	// sessions amortize the channel agreements, coding matrices, and the
	// advertise stage instead. The sessions' client scratch goes back to
	// the substrates' free lists on every return path (ARCHITECTURE.md,
	// "Round scratch"): nothing the round returns aliases it.
	var sess *secagg.RoundSessions
	var lsaSess *lightsecagg.RoundSessions
	if cfg.Sessions != nil {
		if proto == ProtocolLightSecAgg {
			lsaSess, err = newLightSecAggSessions(ids, rand)
			defer lsaSess.Release()
		} else {
			sess, err = newSecAggSessions(ids, rand)
			defer sess.Release()
		}
		if err != nil {
			return nil, err
		}
	}

	// Chunk pipeline state. removing is the removal stage's noise buffer;
	// a client's noise is added straight into its chunk input. The
	// aggregation stage is the only one on pipeline.Communication, which
	// admits one chunk at a time, so the chunks' substrate rounds run one
	// after another on the sessions — in epoch order, so each party draws
	// a chunk's masks from where the previous chunk left its streams.
	var removing []int64
	if plan != nil {
		removing = make([]int64, longest)
	}
	chunkInputs := make([]map[uint64]ring.Vector, m)
	chunkSums := make([]ring.Vector, m)
	stageClient := func(c int) error {
		// c-comp: assemble chunk inputs; survivors add their XNoise. A
		// chunk input is the client's window of the slab, noised in place:
		// chunk ranges are disjoint, each chunk passes here once, and the
		// substrates only read their inputs.
		lo, hi := bounds[c][0], bounds[c][1]
		inputs := make(map[uint64]ring.Vector, len(ids))
		for i, id := range ids {
			chunk := ring.Vector{Bits: cfg.Codec.Bits, Data: slab[i*pd+lo : i*pd+hi : i*pd+hi]}
			if plan != nil && aggregated(id) {
				err := chunk.AddSignedVia(func(acc []int64) error {
					return noise[i].AddTotalNoise(*plan, sampler, acc)
				})
				if err != nil {
					return err
				}
			}
			inputs[id] = chunk
		}
		chunkInputs[c] = inputs
		return nil
	}
	stageProtocol := func(c int) error {
		// comm (+ the protocol's own compute): secure aggregation of the
		// chunk.
		if proto == ProtocolLightSecAgg {
			sum, err := runLightSecAggChunk(lsaCfg, c, chunkInputs[c], schedule, rand, lsaSess)
			if err != nil {
				return fmt.Errorf("core: chunk %d aggregation: %w", c, err)
			}
			chunkSums[c] = sum
			return nil
		}
		chunkCfg := baseCfg
		chunkCfg.Round = subRound(cfg.Round, c)
		chunkCfg.Dim = len(chunkInputs[c][ids[0]].Data)
		chunkCfg.MaskEpoch = uint64(c)
		rr, err := secagg.RunWithSessions(chunkCfg, chunkInputs[c], nil, schedule, rand, sess)
		if err != nil {
			return fmt.Errorf("core: chunk %d aggregation: %w", c, err)
		}
		chunkSums[c] = ring.Vector{Bits: cfg.Codec.Bits, Data: rr.Result.Sum}
		return nil
	}
	stageServer := func(c int) error {
		// s-comp: XNoise removal for the chunk.
		if plan == nil {
			return nil
		}
		removing := removing[:chunkSums[c].Len()]
		clear(removing)
		removal.AddNext(removing)
		return chunkSums[c].SubSignedInPlace(removing)
	}

	workflow := pipeline.Workflow{
		{Name: "client-encode-noise", Resource: pipeline.ClientCompute},
		{Name: "secure-aggregation", Resource: pipeline.Communication},
		{Name: "server-noise-removal", Resource: pipeline.ServerCompute},
	}
	ex, err := pipeline.NewExecutor(workflow, []pipeline.StageFunc{stageClient, stageProtocol, stageServer})
	if err != nil {
		return nil, err
	}
	if err := ex.Run(m); err != nil {
		return nil, err
	}

	agg, err := ring.Concat(chunkSums)
	if err != nil {
		return nil, err
	}
	res := &roundPartial{Sum: agg, Chunks: m, Protocol: proto}
	for _, id := range ids {
		if !aggregated(id) {
			res.Dropped = append(res.Dropped, id)
			continue
		}
		res.Survivors = append(res.Survivors, id)
		if _, late := schedule[id]; late {
			res.LateDropped = append(res.LateDropped, id)
		}
	}
	return res, nil
}

// encodeSlab encodes client ids[i]'s update into row i of slab with the
// rounding stream rounding[i]. Each of at most GOMAXPROCS workers, with
// its own encoder, takes every workers-th row, so the slab is
// byte-identical whatever the worker count.
func encodeSlab(codec skellam.Params, slab []uint64, ids []uint64, updates map[uint64][]float64, rounding []*prg.Stream) error {
	pd := codec.PaddedDim()
	workers := min(runtime.GOMAXPROCS(0), len(ids))
	return engine.ForEach(workers, func(w int) error {
		enc, err := skellam.NewEncoder(codec)
		if err != nil {
			return err
		}
		for i := w; i < len(ids); i += workers {
			dst := ring.Vector{Bits: codec.Bits, Data: slab[i*pd : (i+1)*pd]}
			if err := enc.EncodeInto(dst, updates[ids[i]], rounding[i]); err != nil {
				return fmt.Errorf("core: encoding client %d: %w", ids[i], err)
			}
		}
		return nil
	})
}

// lightSecAggSchedule maps the round's secagg-stage drop schedule onto
// LightSecAgg's lifecycle: anything at or before the masked upload
// becomes a drop before LightSecAgg's masked upload (the client still
// completes offline sharing, per the §6.1 model — LightSecAgg's offline
// phase needs every sampled client), and later drops become drops before
// the one-shot recovery response (the client's update is in the
// aggregate, exactly like a late secagg dropper).
func lightSecAggSchedule(s secagg.DropSchedule) lightsecagg.DropSchedule {
	if len(s) == 0 {
		return nil
	}
	out := make(lightsecagg.DropSchedule, len(s))
	for id, st := range s {
		if st <= secagg.StageMaskedInput {
			out[id] = lightsecagg.StageMaskedInput
		} else {
			out[id] = lightsecagg.StageAggShare
		}
	}
	return out
}

// runLightSecAggChunk aggregates one chunk on the LightSecAgg substrate,
// on a copy of the round's validated config with the chunk's Dim and
// sub-round: each client's window of the round slab is read as
// GF(2^61−1) elements in place (field.View — a residue below 2^Bits is
// canonical, and n·2^Bits < p is checked at round start), LightSecAgg's
// in-process round sums them exactly without writing them, and the sum
// reduces back mod 2^Bits — equal to the ring sum coordinate-wise because
// reduction commutes with integer addition.
func runLightSecAggChunk(base lightsecagg.Config, chunk int, inputs map[uint64]ring.Vector,
	schedule secagg.DropSchedule, rand io.Reader, sess *lightsecagg.RoundSessions) (ring.Vector, error) {

	first := inputs[base.ClientIDs[0]]
	lcfg := base
	lcfg.Dim = first.Len()
	// Distinct per sub-round so sealed-share envelopes of different
	// chunks (and rounds) are AD-separated on shared session keys.
	lcfg.Round = subRound(base.Round, chunk)
	elems := make(map[uint64][]field.Element, len(inputs))
	for id, v := range inputs {
		elems[id] = field.View(v.Data)
	}
	sum, err := lightsecagg.RunWithSessions(lcfg, elems, lightSecAggSchedule(schedule), rand, sess)
	if err != nil {
		return ring.Vector{}, err
	}
	out := ring.NewVector(first.Bits, lcfg.Dim)
	mask := out.Mask()
	for i, e := range sum {
		out.Data[i] = e.Uint64() & mask
	}
	return out, nil
}
