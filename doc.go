// Package repro is a from-scratch Go reproduction of "Dordis: Efficient
// Federated Learning with Dropout-Resilient Differential Privacy"
// (Jiang, Wang, Chen — EuroSys 2024).
//
// The library lives under internal/; runnable entry points are
// cmd/dordis (training CLI), cmd/dordis-node (TCP deployment: one round,
// or a multi-round service with the re-key handshake and persistent
// client sessions), cmd/dordis-bench (regenerates every table and
// figure, printing the same rows and series the paper reports), and
// examples/ (indexed in examples/README.md). The root package holds only
// this file.
//
// ARCHITECTURE.md maps the paper's pipeline onto the packages: the round
// lifecycle, the shared stage-collection engine, the per-substrate
// drivers and codecs, the session layer's threat model, and a table of
// which driver runs where. PROTOCOL.md is the wire-level reference:
// framing, every stage message of both drivers, the handshake state
// machine, codec byte layouts, and the session persistence format. This
// file keeps only the performance-contract summary below.
//
// # Performance architecture
//
// Secure aggregation dominates round time (paper Fig. 2), so the
// mask-expansion/aggregation data path is built as a bulk, parallel
// pipeline with the following contracts:
//
// Bulk PRG. prg.Stream exposes Fill, FillUint64, and FillUint64Masked,
// which keystream directly into the caller's buffer at the cipher's bulk
// rate. The logical byte stream is a pure function of the seed — the
// internal 512-byte buffer is lookahead only — so scalar (Uint64/Read) and
// bulk expansion interleave freely and still produce bit-identical draws.
// That identity is pinned by a golden-keystream test
// (prg.TestGoldenKeystream): any change that alters the byte stream breaks
// client/server mask agreement and must fail there. Word draws are
// little-endian on every platform (big-endian hosts byte-swap in place).
//
// Bulk masking. A mask is its AES-CTR keystream read ⌊64/Bits⌋
// coordinates to the 64-bit word (three at the paper's 20 bits), a layout
// that is part of the protocol (PROTOCOL.md, "Mask expansion") and pinned
// against a scalar reference in package ring. One kernel,
// ring.Vector.MaskManyInPlace, accumulates Σ sign_k·PRG_k into a
// coordinate range of its destination block by block: a block stays in
// cache while every stream passes through it, the streams summed while
// still packed and unpacked into the vector once, so the destination is
// read and written once however many masks there are and nothing
// dim-sized is allocated. MaskInPlace and MaskRangeInPlace are its
// single-stream forms; AddManyInPlace/SubManyInPlace fold many vectors
// into an accumulator in cache-resident blocks.
//
// Seekable expansion. The CTR keystream is position-addressable
// (prg.Stream.Seek, AtInto: 128-bit counter arithmetic, no keystream
// generated in between), so a range of a mask is expanded through a
// cursor aimed at its first word and disjoint ranges of one destination
// expand concurrently: secagg's mask fan-out cuts the coordinate range at
// kernel-block multiples, and lightsecagg's segmented uniform fill cuts
// its own stream the same way. The result is identical to the sequential
// pass (property-pinned for GOMAXPROCS 1–8), so parallelism is a local
// scheduling decision: either side of a wire round may expand with any
// worker count.
//
// Noise sampling. Config.NoiseEpoch versions the XNoise draw sequence
// exactly as MaskEpoch versions mask derivation. Epoch 0, the default,
// is a whole-vector Poisson-splitting Skellam sampler: all but one of a
// client's T+1 noise components have per-coordinate variance of a few
// hundredths, so it draws the vector's ±1 mass once and scatters it —
// O(variance·dim), not O(dim) — and hands variances ≥ 1 to CDF
// inversion. Epoch 1 is inversion throughout: a cached per-λ table, one
// uniform per draw, guard-banded tails falling back to the exact
// two-Poisson sampler. Both sequences are golden-pinned. All parties
// must draw under the same epoch for noise removal to cancel, so the
// handshake's signed offer and commit pin it per round (PROTOCOL.md).
//
// Parallel unmasking. The server's unmask step and the client's masking
// step go through one function (secagg.applyMaskTasks): the streams are
// built across a bounded worker pool — key agreement or reconstruction
// included, once per mask — then the same workers split the coordinate
// range and accumulate every mask straight into the destination (the
// client's y, the server's masked sum), with no per-worker partial
// vectors and no merge. Mask removals commute in Z_2^b and the ranges are
// disjoint, so the result is exactly the sequential one; a stream that
// fails to build aborts before anything is expanded. The pool is
// exercised under -race in CI. Self-mask seeds and XNoise noise seeds
// reconstruct through shamir.ReconstructBatch, which computes the
// Lagrange-at-zero coefficients once per survivor cohort (one batched
// inversion) and reuses them across all secrets.
//
// Wire codec. The dim-length payloads — stage-2 masked inputs and the
// final result broadcast — and the n² stage-1 encrypted share bundles use
// a hand-rolled length-prefixed little-endian codec
// (internal/core/codec.go) with a magic/tag prefix, and so do the
// low-rate control messages (internal/core/control.go).
// transport.AppendUint64sLE/DecodeUint64sLE move word slabs with a single
// memmove on little-endian hosts, and TCP frames go out header+payload in
// one gathered write.
//
// Streaming stage collection. Every round — core.RunWireServer and
// lightsecagg.RunWireServer (real transport, fan-in via
// engine.TransportSource) as well as secagg.Run and lightsecagg.Run
// (in-process clients as goroutines) — is a substrate's stage table
// walked by the one server walker of the shared round engine
// (internal/engine), the runtime counterpart of the paper's
// §4.1 claim that aggregation latency hides when stage work is pipelined
// rather than barriered. The engine's Collect admits one stage's
// messages until every expected sender answered or the stage deadline
// fired (or, for any-K-of-N stages like LightSecAgg's one-shot recovery,
// until Stage.Quorum senders answered); admitted frames decode
// concurrently across a bounded worker pool, and each decoded message
// feeds the server's incremental per-message API (secagg.Server's
// AddAdvertise/AddShare/AddMasked/AddConsistency/AddUnmask/AddNoiseShare,
// lightsecagg.Server's AddAdvertise/AddShareBundle/AddMasked/AddAggShare)
// in admission order, serialized by a pipeline.Gate — the same FIFO
// resource-gate primitive the chunk executor schedules with. Masked
// inputs fold into a running partial aggregate as they arrive, so
// sealing the stage (the per-stage Seal* methods, which also enforce the
// protocol thresholds) costs an O(1) tail merge instead of n decodes
// plus n vector adds at a stage barrier: the 64-client masked-stage
// close drops ~6-7x on secagg and ~16-50x on lightsecagg (see
// CHANGES.md). The batch Collect*/Reconstruct methods
// remain as thin wrappers over Add*/Seal* for white-box tests and
// non-streaming callers. Frame hygiene (stale-stage, duplicate,
// out-of-order, unknown-sender admission filtering) lives in the engine
// and is chaos-tested under -race in internal/core and
// internal/lightsecagg.
//
// Key-agreement amortization. X25519 agreement is the dominant fixed cost
// of a round (~57% of a 64-client dim-4096 round before this layer), and
// the per-chunk drivers used to multiply it: m pipeline chunks meant m
// independent secagg rounds and m·n·k agreements over identical pairs.
// secagg.Session / secagg.ServerSession cache one key generation and the
// pairwise secrets it produces, so agreement happens once per (round,
// pair); per-chunk mask seeds fork from the cached secret by
// domain-separated HKDF expansion (dh.Expand with Config.MaskEpoch = chunk
// index — epoch 0 is byte-identical to the session-less derivation,
// pinned by a golden test), and m-chunk rounds driven through a
// core.SessionPool perform n·k agreements instead of m·n·k (3.5x on the
// 64-client 8-chunk dim-4096 round; 2.5x on the SecAgg+ graph, which
// composes both levers; see CHANGES.md). Consecutive rounds sharing a pool reuse the keys
// for up to RatchetRounds rounds: every cached secret advances one
// dh.Ratchet step per round (Config.KeyRatchet), and the advertise stage
// is skipped outright on the cached roster — both drivers support the
// skip (secagg.RunWithSessions resumes automatically; the wire driver via
// the Resume flags).
//
// Session reuse is constrained by a per-protocol threat model —
// ratchet separation and its retroactive fragility on dropout, dropout
// tainting, derivation-point uniqueness for the secagg family; none of
// those for lightsecagg, whose server never reconstructs client key
// material — spelled out in ARCHITECTURE.md ("Sessions and the
// key-reuse threat model"). The conservative default everywhere is
// RatchetRounds ≤ 1: fresh keys per round, amortization within the
// round's chunks only.
//
// Wire-deployment continuity. On the wire, whether a round resumes is
// decided by the signed re-key handshake (core.RunHandshakeServer /
// RunHandshakeClient; message layouts and state machine in PROTOCOL.md)
// rather than by in-process policy, and three threat-model points are
// specific to that deployment shape:
//
// Dropout taint over the wire. The taint that forces a re-key is
// recorded in the session layer at the point of exposure: the server
// taints a client the moment it reconstructs (or, for a scheduled
// in-process drop, may reconstruct) that client's mask key in the unmask
// stage, and a client holds its own session tainted from handshake
// commit until clean round completion — so a crash, a network partition,
// or a mid-round drop all surface as taint at the next handshake, from
// whichever side observed them. Any taint on any side downgrades the
// next round to a clean re-key; the cost of a false positive is one
// advertise round trip, the cost of a false negative would be a server
// that can derive a client's future pairwise masks, so every ambiguity
// resolves toward re-key. The handshake also burns each ratchet step at
// commit time on both sides (aborted rounds consume their step), closing
// the derivation-point-reuse hole for drivers that do not go through
// secagg.RoundSessions.
//
// At-rest session state. A client session persists across restarts as a
// versioned binary record (secagg/persist.go, lightsecagg/persist.go)
// sealed by internal/sessionstore: AES-256-GCM under a deployment-
// supplied store key, associated data binding the record name and
// envelope version, atomic file replacement. What a leak costs: the
// encrypted file alone reveals nothing beyond its size; file plus store
// key is equivalent to a live-endpoint compromise of that client — the
// X25519 private scalars and cached pairwise secrets let the holder
// derive that key generation's future (and, via the ratchet chain's
// public derivation, same-generation past) pairwise mask streams and
// decrypt that client's share ciphertexts, but nothing about other
// clients' inputs and nothing beyond the key generation's KeyRounds
// lifetime. Expanded masks are deliberately never persisted: a mask
// keystream at rest would turn a store leak into a direct unmasking of
// the one upload it covers, for zero amortization benefit — re-deriving
// from the 32-byte secret costs ~1.6 ns/element, cheaper than reading
// the expansion back from disk. Per-round state (self-mask seeds,
// decrypted share bundles) is never persisted either; it is freshly
// dealt every round by design.
//
// Sessions persist across restarts with zero key work: the restart-
// resume acceptance test pins a restored wire round to zero dh.Generate
// and zero dh.Agree calls via the process-wide counters, under -race.
//
// Unified protocol backends. The LightSecAgg baseline
// (internal/lightsecagg) runs on the same machinery as the secagg
// family: the same engine collection (with quorum completion for its
// any-U one-shot recovery), the same incremental Add*/Seal* server
// shape, its own session type (cached channel secrets, encoding
// matrices, recovery-weight cohorts, advertise skip) plugged into
// core.SessionPool, and a binary codec for its volume payloads. It is
// selectable per round via core.RoundConfig.Protocol =
// ProtocolLightSecAgg (Threshold keeps response-count semantics:
// U = Threshold, T = D = n − Threshold); ProtocolAuto never picks it,
// because the trade pays only under a dropout forecast the caller has.
// Its field-layer hot paths run through two GF(2^61−1) kernels:
// field.WeightedSumInto (share encoding and aggregate-mask recovery as
// blocked matrix–vector products with deferred Mersenne reduction —
// one reduction per output element) and field.BatchInv (Montgomery's
// trick: one Fermat inversion per batch of Lagrange denominators); the
// server's recovery-weight cache additionally updates cohorts that
// differ by one straggler swap incrementally, O(parts·u) instead of a
// cold O(parts·u²) recompute.
//
// Measuring the floor. The round benchmark (go run -C bench .; see
// bench/README.md) runs four end-to-end workloads and a per-layer ledger —
// per-epoch Skellam sampling, mask expansion, codecs, transport — and tags
// every row with the host, so a run at another GOMAXPROCS is just another
// row. It is the one place a round, a stage or a kernel is timed: the few
// `go test -bench` harnesses left in the packages cover kernels it does
// not reach (field inversion, the Shamir threshold sweep, the bundle
// codec, dgauss, ml, vrf, the pipeline simulator) and nothing asserts on
// them. Historical before/after numbers are in CHANGES.md; the reference
// implementations the optimized paths are tested against
// (maskInPlaceScalarRef, encodeSharesNaive, the scalar SkellamInv) stay
// in their packages as test oracles.
package repro
