package main

// The metric table is the schema of the report: every metric is printed by
// name with its unit and direction, end-to-end metrics also with the
// regression bound, and BENCHMARK.json is generated from the same table
// (-manifest), so the two cannot drift.

type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound, end-to-end metrics only: the share of the parent commit's
	// median by which the metric may get worse before a change counts as
	// a regression. 0 means the metric must repeat exactly.
	Bound float64
	// Contract marks the end-to-end metrics BENCHMARK.json lists. The
	// driver wants every listed metric non-zero on every workload, which
	// rules out the failure share (0 when all is well — it travels as
	// attempted/failed instead) and the wire bytes (0 on the in-process
	// workloads — they are per-layer rows there).
	Contract bool
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a user of the aggregation service would see.
//
// Each bound is three times the widest quartile spread that eight sets of
// ten runs of one commit showed for the metric on the 2-core VM this was
// written on, rounded up to a whole per cent (round time 6.74 %, CPU
// 6.6 %, peak RSS 4.9 %), so that a clean re-run of the same commit is
// not reported as a regression; they are not a statement about what a
// regression is worth. Allocation repeats to 0.08 % and keeps the 3 % the
// issue gave it. Set-up spreads up to 9.4 % and gets the driver's widest,
// 25 %, which the driver also wants to be the largest of the bounds.
var endToEnd = []metricDef{
	{Name: "round_s_p10", Unit: "s", Better: lower, Bound: 0.21, Contract: true},
	{Name: "cpu_s_p10", Unit: "s", Better: lower, Bound: 0.20, Contract: true},
	{Name: "alloc_mb_per_round", Unit: "MB", Better: lower, Bound: 0.03, Contract: true},
	{Name: "peak_rss_mb", Unit: "MB", Better: lower, Bound: 0.15, Contract: true},
	{Name: "wire_bytes_per_client", Unit: "B", Better: lower, Bound: 0},
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25, Contract: true},
	{Name: "failed_round_share", Unit: "ratio", Better: lower, Bound: 0},
}

// perLayer is the ledger of the traced run: informational, no bounds.
// README.md says which end-to-end metric each row should move and on
// which workload.
var perLayer = []metricDef{
	// core: the round-time distribution
	{Name: "core.round_s_p50", Unit: "s", Better: lower},
	{Name: "core.round_s_p90", Unit: "s", Better: lower},
	{Name: "core.round_samples", Unit: "count", Better: higher},
	{Name: "core.agg_mcoords_per_s", Unit: "Mcoord/s", Better: higher},
	// core wire driver, from the taps
	{Name: "core.wire.handshake_s", Unit: "s", Better: lower},
	{Name: "core.wire.advertise_window_s", Unit: "s", Better: lower},
	{Name: "core.wire.shares_window_s", Unit: "s", Better: lower},
	{Name: "core.wire.masked_window_s", Unit: "s", Better: lower},
	{Name: "core.wire.consistency_window_s", Unit: "s", Better: lower},
	{Name: "core.wire.unmask_window_s", Unit: "s", Better: lower},
	{Name: "core.wire.result_s", Unit: "s", Better: lower},
	{Name: "core.wire.transcript_s", Unit: "s", Better: lower},
	{Name: "core.wire.combine_s", Unit: "s", Better: lower},
	{Name: "core.wire.client_sharekeys_s", Unit: "s", Better: lower},
	{Name: "core.wire.client_masked_s", Unit: "s", Better: lower},
	{Name: "core.wire.client_unmask_s", Unit: "s", Better: lower},
	{Name: "core.wire.masked_bytes_per_coord", Unit: "B", Better: lower},
	{Name: "core.wire.control_bytes_per_round", Unit: "B", Better: lower},
	// pipeline
	{Name: "pipeline.overhead_us_per_chunk", Unit: "us", Better: lower},
	{Name: "pipeline.chunk_speedup", Unit: "ratio", Better: higher},
	// secagg state machines, stepped
	{Name: "secagg.client.advertise_s", Unit: "s", Better: lower},
	{Name: "secagg.client.sharekeys_s", Unit: "s", Better: lower},
	{Name: "secagg.client.masked_s", Unit: "s", Better: lower},
	{Name: "secagg.client.consistency_s", Unit: "s", Better: lower},
	{Name: "secagg.client.unmask_s", Unit: "s", Better: lower},
	{Name: "secagg.client.noiseshares_s", Unit: "s", Better: lower},
	{Name: "secagg.server.advertise_s", Unit: "s", Better: lower},
	{Name: "secagg.server.shares_s", Unit: "s", Better: lower},
	{Name: "secagg.server.masked_s", Unit: "s", Better: lower},
	{Name: "secagg.server.consistency_s", Unit: "s", Better: lower},
	{Name: "secagg.server.unmask_s", Unit: "s", Better: lower},
	{Name: "secagg.server.noiseshares_s", Unit: "s", Better: lower},
	{Name: "secagg.server.finalize_s", Unit: "s", Better: lower},
	{Name: "secagg.parallel_efficiency", Unit: "ratio", Better: higher},
	// lightsecagg state machines, stepped
	{Name: "lightsecagg.client.encode_shares_s", Unit: "s", Better: lower},
	{Name: "lightsecagg.client.seal_shares_s", Unit: "s", Better: lower},
	{Name: "lightsecagg.client.open_envelopes_s", Unit: "s", Better: lower},
	{Name: "lightsecagg.client.masked_s", Unit: "s", Better: lower},
	{Name: "lightsecagg.client.agg_share_s", Unit: "s", Better: lower},
	{Name: "lightsecagg.server.masked_s", Unit: "s", Better: lower},
	{Name: "lightsecagg.server.recover_s", Unit: "s", Better: lower},
	// engine
	{Name: "engine.collect_us_per_frame", Unit: "us", Better: lower},
	// transport
	{Name: "transport.bytes_up_per_client", Unit: "B", Better: lower},
	{Name: "transport.bytes_down_per_client", Unit: "B", Better: lower},
	{Name: "transport.frames_per_round", Unit: "count", Better: lower},
	{Name: "transport.tcp_mb_per_s", Unit: "MB/s", Better: higher},
	{Name: "transport.tcp_small_rtt_us", Unit: "us", Better: lower},
	{Name: "transport.mem_frame_us", Unit: "us", Better: lower},
	{Name: "transport.dial_s", Unit: "s", Better: lower},
	// combine, transcript, sig
	{Name: "combine.fold_s", Unit: "s", Better: lower},
	{Name: "combine.encode_partial_us", Unit: "us", Better: lower},
	{Name: "combine.decode_partial_us", Unit: "us", Better: lower},
	{Name: "transcript.build_round_us", Unit: "us", Better: lower},
	{Name: "transcript.verify_round_us", Unit: "us", Better: lower},
	{Name: "sig.sign_us", Unit: "us", Better: lower},
	{Name: "sig.verify_us", Unit: "us", Better: lower},
	// skellam, xnoise, rng
	{Name: "skellam.encode_s_per_client", Unit: "s", Better: lower},
	{Name: "skellam.decode_s", Unit: "s", Better: lower},
	{Name: "xnoise.total_noise_s_per_client_chunk", Unit: "s", Better: lower},
	{Name: "xnoise.removal_s_per_chunk", Unit: "s", Better: lower},
	{Name: "xnoise.noise_var_ratio", Unit: "ratio", Better: lower},
	{Name: "rng.skellam_ns_per_sample.epoch0", Unit: "ns", Better: lower},
	{Name: "rng.skellam_ns_per_sample.epoch1", Unit: "ns", Better: lower},
	// ring, prg, field
	{Name: "ring.mask_ns_per_elem", Unit: "ns", Better: lower},
	{Name: "ring.add_ns_per_elem", Unit: "ns", Better: lower},
	{Name: "prg.fill_gb_per_s", Unit: "GB/s", Better: higher},
	{Name: "field.mul_ns", Unit: "ns", Better: lower},
	// dh, shamir, aead
	{Name: "dh.agree_us", Unit: "us", Better: lower},
	{Name: "dh.generate_us", Unit: "us", Better: lower},
	{Name: "dh.agreements_per_round", Unit: "count", Better: lower},
	{Name: "dh.generations_per_round", Unit: "count", Better: lower},
	{Name: "shamir.split_us", Unit: "us", Better: lower},
	{Name: "shamir.reconstruct_batch_us", Unit: "us", Better: lower},
	{Name: "aead.seal_us_1k", Unit: "us", Better: lower},
	// runtime and host
	{Name: "runtime.allocs_per_round", Unit: "count", Better: lower},
	{Name: "runtime.gc_cycles_per_round", Unit: "count", Better: lower},
	{Name: "runtime.gc_pause_ms_per_round", Unit: "ms", Better: lower},
	{Name: "host.calib_s", Unit: "s", Better: lower},
	{Name: "host.steal_pct", Unit: "%", Better: lower},
	{Name: "host.disturbed_passes", Unit: "count", Better: lower},
	{Name: "trace.overhead_pct", Unit: "%", Better: lower},
}
