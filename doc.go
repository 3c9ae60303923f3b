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
// drivers and codecs, frame ownership, the session layer's threat model,
// and a table of which driver runs where. PROTOCOL.md is the wire-level
// reference: framing, every stage message of both drivers, the handshake
// state machine, codec byte layouts, mask expansion, and the session
// persistence format. Each contract is written down once, in the
// document where it is normative; this file is only the map.
//
// # Performance architecture
//
// Secure aggregation dominates round time (paper Fig. 2), so the data
// path from a seed to the server's sum is bulk, parallel and streaming.
// Where each piece enters, and where its contract lives:
//
//   - Keystream: prg.Stream — Fill/FillUint64 bulk expansion, Seek/AtInto
//     position addressing, byte-identical to scalar draws
//     (prg.TestGoldenKeystream). Package prg's comment.
//   - Masks: ring.Vector.MaskManyInPlace, reached through
//     secagg.applyMaskTasks from both Client.MaskedInput and
//     Server.unmask. The layout — ⌊64/Bits⌋ coordinates per keystream
//     word — is protocol: PROTOCOL.md "Mask expansion". Why the
//     coordinate range is what gets split across workers:
//     ARCHITECTURE.md "Versioned compute contracts".
//   - Noise: xnoise.SamplerForEpoch (rng.AddSkellamSplit, AddSkellamInv),
//     versioned per round by Config.NoiseEpoch and the handshake.
//     ARCHITECTURE.md "Versioned compute contracts", PROTOCOL.md.
//   - A round: SecAgg's stage table (secagg.Server.Program, given the
//     caller's resume decision, which only its rows express) walked by
//     engine.RunLocal in-process, in lockstep, or engine.ServeWire/JoinWire
//     over a transport; every stage collected by engine.Collect, one loop
//     that decodes each message and applies it, in admission order, to
//     the incremental Add*/Seal* servers. LightSecAgg runs in process
//     only, as one loop over its four stages (lightsecagg.RunWithSessions).
//     Both in-process rounds run their clients on engine.ForEach, the
//     round path's one fan-out: at most GOMAXPROCS workers claiming
//     indices from one counter.
//     ARCHITECTURE.md "The engine" and "Which link runs where".
//   - Frames: hand-rolled little-endian codecs on
//     transport.Reader/Writer (core/codec.go, core/control.go,
//     lightsecagg/codec.go); buffers leased and released by the rule of
//     ARCHITECTURE.md "Frame ownership", the masked vector folded
//     straight from its frame (ring.Vector.AddBytesLE). Byte layouts:
//     PROTOCOL.md.
//   - Keys: secagg.Session/ServerSession and lightsecagg's, over the
//     shared internal/session, shared by one round's chunks through
//     core.SessionPool and resumed across rounds only by the re-key
//     handshake (core.RunHandshakeServer/Client), persisted
//     through internal/sessionstore. What reuse costs, what taint means
//     and what a leaked store gives away: ARCHITECTURE.md "Sessions and
//     the key-reuse threat model" and "Cross-round continuity"; the
//     records: PROTOCOL.md "Session persistence at rest".
//   - LightSecAgg's field kernels: field.WeightedSumInto (blocked
//     matrix–vector products, raw 128-bit products summed four rows per
//     pass and reduced once per output), field.BatchInv (Montgomery's
//     trick) and field.LagrangeBasis (denominators inverted once per
//     abscissa set, O(t) weights per point), which also serves
//     shamir.ReconstructBatch for the SecAgg seeds. Their package
//     comments.
//   - What any of it costs: go run -C bench . (bench/README.md), the one
//     place a round, a stage or a kernel is timed; history in CHANGES.md,
//     open work in ROADMAP.md.
package repro
