// Package core is Dordis's orchestration layer: it composes the DSkellam
// codec, the XNoise noise-enforcement scheme, the SecAgg/SecAgg+ secure
// aggregation protocols and the pipeline executor into end-to-end
// training rounds (the architecture of paper Fig. 7) — in process
// (RunRound, the sharded plan) and over a transport (the wire drivers, the
// re-key handshake, the shard-aggregator and combiner legs).
package core
