package core

import (
	"errors"
	"fmt"
	"io"
	"math/bits"
	"runtime"
	"sync"

	"repro/internal/field"
	"repro/internal/lightsecagg"
	"repro/internal/pipeline"
	"repro/internal/prg"
	"repro/internal/ring"
	"repro/internal/secagg"
	"repro/internal/secaggplus"
	"repro/internal/skellam"
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
// choice needs a dropout forecast only the deployment has.
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
	default:
		return "auto"
	}
}

// RoundConfig configures one Dordis aggregation round (paper Fig. 7,
// steps 2–4: pipeline preparation, client processing, server aggregation).
type RoundConfig struct {
	Round     uint64
	Protocol  Protocol
	Degree    int // SecAgg+ neighborhood degree; 0 = recommended
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
	Sampler   xnoise.Sampler
	// NoiseEpoch versions the noise draw sequence (secagg.Config.NoiseEpoch,
	// xnoise.SamplerForEpoch). All parties of a round must agree; the wire
	// handshake pins it per round.
	NoiseEpoch uint64
	// Seed drives per-round deterministic randomness (noise seeds, chunk
	// sub-streams).
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
	// round's chunks (agree once per pair, each chunk masking with its
	// window of the pair's one stream) and, when the pool allows, across
	// consecutive RunRound calls (ratcheted secrets, skipped advertise
	// stage). nil runs every chunk with fresh keys — the historical
	// behavior.
	Sessions *SessionPool
}

// maxChunks bounds RoundConfig.Chunks: a chunk's sub-round id is
// Round·maxChunks + chunk (subRound), so a larger count would give a late
// chunk of one round the id of an early chunk of the next.
const maxChunks = 1000

// subRound is the substrate round id of one chunk of a round. It is what
// separates the chunks' mask streams and — on a pooled LightSecAgg
// session, whose channel keys are static — the only thing in the envelope
// AD that keeps one chunk's sealed shares from replaying into another's.
func subRound(round uint64, chunk int) uint64 { return round*maxChunks + uint64(chunk) }

// Validate checks the configuration.
func (c RoundConfig) Validate() error {
	if err := c.Codec.Validate(); err != nil {
		return err
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
	if c.NoiseEpoch > xnoise.MaxNoiseEpoch {
		return fmt.Errorf("core: unknown noise epoch %d (max %d)", c.NoiseEpoch, xnoise.MaxNoiseEpoch)
	}
	return nil
}

// sampler returns the explicitly configured noise sampler, or the frozen
// sampler of the config's NoiseEpoch (Validate rejects unknown epochs).
func (c RoundConfig) sampler() xnoise.Sampler {
	if c.Sampler != nil {
		return c.Sampler
	}
	return xnoise.SamplerForEpoch(c.NoiseEpoch)
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
//
// RunRound is the single-aggregator special case of the sharded topology:
// it runs runRoundRing over the whole roster and decodes. RunShardedRound
// runs the same ring-level round once per shard and folds the partials
// with combine.Combiner before the one decode.
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

// roundPartial is the ring-level outcome of one engine-backed round: the
// aggregate *before* Skellam decoding — masks cancelled, dropouts
// adjusted, excess XNoise components removed — plus the accounting a root
// combiner folds into a combine.Partial. Keeping the partial in the ring
// is what makes cross-shard folding exact: modular vector addition
// commutes with the central decode, while decoded float sums would not.
type roundPartial struct {
	Sum                             ring.Vector
	Survivors, Dropped, LateDropped []uint64
	// RemovedComponents lists the XNoise component indices removed for
	// this cohort's dropout count (nil without XNoise).
	RemovedComponents []int
	Chunks            int
	Protocol          Protocol
}

// runRoundRing is the shared round body: every aggregator — the classic
// single server and each shard of the two-level topology — is an instance
// of this, parameterized only by its (sub-)roster and config.
func runRoundRing(cfg RoundConfig, updates map[uint64][]float64, drops []uint64, rand io.Reader) (*roundPartial, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ids := sortedMapKeys(updates)
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
	// vector) into one slab the round owns; a chunk input is a window of it
	// (ARCHITECTURE.md, "Round scratch"). The rounding streams fork here in
	// client order, since Fork reads its parent; encodeSlab then fills the
	// rows on every core.
	pd := cfg.Codec.PaddedDim()
	slab := make([]uint64, len(ids)*pd) // client i's encoding is slab[i·pd : (i+1)·pd]
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

	// Per-round XNoise: one ClientNoise per client, its seeds derived
	// deterministically so runs are reproducible (labelled as chunk 0's
	// were, so a one-chunk round draws what it always drew). Each chunk's
	// stageClient reads the next chunk-length of every survivor's
	// components, and stageServer the same windows of the removed ones
	// through one reader — the executor runs each stage's chunks one at a
	// time in ascending order, so both sides read identical windows.
	sampler := cfg.sampler()
	var noise []*xnoise.ClientNoise
	var removed []int
	var removal *xnoise.NoiseReader
	if plan != nil {
		removed = plan.RemovalComponents(numDropped)
		seedStream := prg.NewStream(prg.NewSeed(cfg.Seed[:], []byte("noise-seeds")))
		noise = make([]*xnoise.ClientNoise, len(ids))
		seeds := make(map[uint64]map[int]field.Element, len(ids)-numDropped)
		for i, id := range ids {
			cn, err := xnoise.NewClientNoise(*plan, seedStream.Fork(fmt.Sprintf("k0/%d", i)))
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

	// Build the per-chunk protocol config.
	proto := ResolveProtocol(cfg.Protocol, len(ids))
	baseCfg := secagg.Config{
		Round:      cfg.Round,
		ClientIDs:  ids,
		Threshold:  cfg.Threshold,
		Bits:       cfg.Codec.Bits,
		NoiseEpoch: cfg.NoiseEpoch,
	}
	switch proto {
	case ProtocolSecAggPlus:
		var err error
		baseCfg, err = secaggplus.NewConfig(baseCfg, cfg.Degree)
		if err != nil {
			return nil, err
		}
	case ProtocolLightSecAgg:
		// U = Threshold responses complete the one-shot recovery;
		// T = D = n − Threshold (the symmetric LightSecAgg instantiation),
		// so the coded pieces have length d/(2·Threshold − n).
		if 2*cfg.Threshold <= len(ids) {
			return nil, fmt.Errorf("core: lightsecagg substrate needs Threshold > n/2, got t=%d n=%d",
				cfg.Threshold, len(ids))
		}
		// Aggregation lifts ring values into GF(2^61−1) and sums exactly;
		// n·(2^Bits−1) must not wrap the field for the lift to be lossless.
		if int(cfg.Codec.Bits)+bits.Len(uint(len(ids))) > 61 {
			return nil, fmt.Errorf("core: lightsecagg substrate: %d-bit ring with %d clients overflows GF(2^61−1)",
				cfg.Codec.Bits, len(ids))
		}
	}

	// Key-agreement amortization: one session set serves every chunk (and,
	// when the pool permits, consecutive rounds), so pairwise X25519
	// agreement happens n·k times per round instead of m·n·k. On the
	// secagg substrates, chunk independence of the masks comes from the
	// per-chunk MaskEpoch window and round independence from the ratchet
	// step; on lightsecagg, masks are drawn fresh per chunk and the
	// sessions amortize the channel agreements, coding matrices, and the
	// advertise stage instead.
	var sess *secagg.RoundSessions
	var lsaSess *lightsecagg.RoundSessions
	var ratchet uint64
	if cfg.Sessions != nil {
		var err error
		if proto == ProtocolLightSecAgg {
			lsaSess, _, err = acquire(cfg.Sessions, &cfg.Sessions.lsa, ids, rand, lightsecagg.NewRoundSessions)
		} else {
			sess, ratchet, err = acquire(cfg.Sessions, &cfg.Sessions.sa, ids, rand, secagg.NewRoundSessions)
		}
		if err != nil {
			return nil, err
		}
		// Taint scheduled droppers up front, before any chunk runs: the
		// server may reconstruct a dropper's mask key mid-round, and an
		// aborted round must not leave its session eligible for reuse.
		// (LightSecAgg sessions need no tainting — its server never
		// reconstructs client key material; see core.SessionPool.)
		if proto != ProtocolLightSecAgg && len(schedule) > 0 {
			dropped := make([]uint64, 0, len(schedule))
			for id := range schedule {
				dropped = append(dropped, id)
			}
			cfg.Sessions.invalidate(dropped)
		}
	}

	// Chunk pipeline state. lift is LightSecAgg's field-element copy of one
	// chunk's inputs, lent to every chunk in turn: the aggregation stage is
	// the only one on pipeline.Communication, which admits one chunk at a
	// time, and the substrate is done with its inputs when it returns.
	// total and removing are the noise stages' buffers, each stage's own.
	longest := bounds[0][1] - bounds[0][0] // chunk 0 is never the shorter one
	var lift []field.Element
	if proto == ProtocolLightSecAgg {
		lift = make([]field.Element, len(ids)*longest)
	}
	var total, removing []int64
	if plan != nil {
		total, removing = make([]int64, longest), make([]int64, longest)
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
				total := total[:hi-lo] // one client's noise at a time
				clear(total)
				if err := noise[i].AddTotalNoise(*plan, sampler, total); err != nil {
					return err
				}
				if err := chunk.AddSignedInPlace(total); err != nil {
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
			sum, err := runLightSecAggChunk(cfg, c, ids, chunkInputs[c], lift, schedule, rand, lsaSess)
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
		chunkCfg.KeyRatchet = ratchet
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
	res.RemovedComponents = removed
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
// rounding stream rounding[i]. GOMAXPROCS workers, each with its own
// encoder, take every workers-th row, so the slab is byte-identical
// whatever the worker count.
func encodeSlab(codec skellam.Params, slab []uint64, ids []uint64, updates map[uint64][]float64, rounding []*prg.Stream) error {
	pd := codec.PaddedDim()
	workers := min(runtime.GOMAXPROCS(0), len(ids))
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			enc, err := skellam.NewEncoder(codec)
			for i := w; i < len(ids) && err == nil; i += workers {
				dst := ring.Vector{Bits: codec.Bits, Data: slab[i*pd : (i+1)*pd]}
				if err = enc.EncodeInto(dst, updates[ids[i]], rounding[i]); err != nil {
					err = fmt.Errorf("core: encoding client %d: %w", ids[i], err)
				}
			}
			errs[w] = err
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
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

// runLightSecAggChunk aggregates one chunk on the LightSecAgg substrate:
// ring values lift losslessly into GF(2^61−1) (n·2^Bits < p, checked at
// round start), the engine-backed in-process round sums them exactly, and
// the sum reduces back mod 2^Bits — equal to the ring sum coordinate-wise
// because reduction commutes with integer addition. lift is the caller's
// scratch for the lifted inputs, at least len(inputs)·dim long and this
// call's alone until it returns.
func runLightSecAggChunk(cfg RoundConfig, chunk int, ids []uint64, inputs map[uint64]ring.Vector,
	lift []field.Element, schedule secagg.DropSchedule, rand io.Reader, sess *lightsecagg.RoundSessions) (ring.Vector, error) {

	dim := inputs[ids[0]].Len()
	lcfg := lightsecagg.Config{
		ClientIDs: ids,
		PrivacyT:  len(ids) - cfg.Threshold,
		Dropout:   len(ids) - cfg.Threshold,
		Dim:       dim,
		// Distinct per sub-round so sealed-share envelopes of different
		// chunks (and rounds) are AD-separated on shared session keys.
		Round: subRound(cfg.Round, chunk),
	}
	lifted := make(map[uint64][]field.Element, len(ids))
	for id, v := range inputs {
		xs := lift[len(lifted)*dim:][:dim:dim]
		for i, w := range v.Data {
			xs[i] = field.New(w)
		}
		lifted[id] = xs
	}
	sum, err := lightsecagg.RunWithSessions(lcfg, lifted, lightSecAggSchedule(schedule), rand, sess)
	if err != nil {
		return ring.Vector{}, err
	}
	out := ring.NewVector(cfg.Codec.Bits, dim)
	mask := out.Mask()
	for i, e := range sum {
		out.Data[i] = e.Uint64() & mask
	}
	return out, nil
}
