package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

// inProcess runs a pass in the test's own process, so `go test` (and its
// -race run) covers the harness without re-executing a binary.
func inProcess(cfg childConfig, _ time.Duration) (*passResult, map[string]float64, error) {
	if cfg.Layers {
		layers, err := runLayers(cfg.passConfig)
		return nil, layers, err
	}
	res, err := runPass(cfg.passConfig)
	return res, nil, err
}

// TestSmokeAndSchema runs every workload for two rounds per pass at
// reduced dimensions, traced, and checks that the report carries every
// metric of the table for every workload — name, unit, direction, bound —
// and that no round failed its oracle.
func TestSmokeAndSchema(t *testing.T) {
	rep, err := runBenchmark(runConfig{seed: 42, rounds: 2, traced: true, small: true}, workloads, inProcess)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Workloads) != len(workloads) {
		t.Fatalf("report has %d workloads, want %d", len(rep.Workloads), len(workloads))
	}
	for i, w := range rep.Workloads {
		if w.Name != workloads[i].name || w.Why == "" {
			t.Errorf("workload %d is %q (why %q), want %q", i, w.Name, w.Why, workloads[i].name)
		}
		// two untraced passes and the traced one, two rounds each
		if w.RoundsAttempted != 6 || w.RoundsFailed != 0 || w.passErrors != 0 {
			t.Errorf("%s: %d rounds attempted, %d failed, %d pass errors: %v",
				w.Name, w.RoundsAttempted, w.RoundsFailed, w.passErrors, w.Failures)
		}
		if len(w.EndToEnd) != len(endToEnd) {
			t.Fatalf("%s: %d end-to-end metrics, want %d", w.Name, len(w.EndToEnd), len(endToEnd))
		}
		for j, d := range endToEnd {
			m := w.EndToEnd[j]
			if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound == nil || *m.Bound != d.Bound {
				t.Errorf("%s: end-to-end metric %d is %+v, want %+v", w.Name, j, m, d)
			}
			if d.Contract && !(m.Value > 0) {
				t.Errorf("%s: %s = %v; the driver wants it non-zero on every workload", w.Name, m.Name, m.Value)
			}
		}
		if got := w.endToEnd("wire_bytes_per_client"); (got > 0) != workloads[i].wire {
			t.Errorf("%s: wire_bytes_per_client = %v on a workload with wire = %v", w.Name, got, workloads[i].wire)
		}
		if len(w.PerLayer) != len(perLayer) {
			t.Fatalf("%s: %d per-layer metrics, want %d", w.Name, len(w.PerLayer), len(perLayer))
		}
		for j, d := range perLayer {
			m := w.PerLayer[j]
			if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != nil {
				t.Errorf("%s: per-layer metric %d is %+v, want %+v", w.Name, j, m, d)
			}
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: %s = %v", w.Name, m.Name, m.Value)
			}
		}

		for _, traced := range []bool{false, true} {
			line := contractLine(w, traced)
			want := 0
			for _, d := range endToEnd {
				if d.Contract {
					want++
				}
			}
			if traced {
				want = len(perLayer)
			}
			if !line.Correct || line.Attempted != 6 || line.Failed != 0 || len(line.Metrics) != want {
				t.Errorf("%s: contract line (traced %v) = correct %v, %d/%d, %d metrics; want %d",
					w.Name, traced, line.Correct, line.Failed, line.Attempted, len(line.Metrics), want)
			}
		}
	}

	// The rows that say which layers a workload exercises must be non-zero
	// exactly where the README says they are.
	nonZero := map[string][]string{
		"flat_cold": {"secagg.client.sharekeys_s", "secagg.server.unmask_s", "pipeline.chunk_speedup", "xnoise.noise_var_ratio", "dh.agreements_per_round",
			"shamir.split_us", "skellam.encode_s_per_client", "xnoise.removal_s_per_chunk", "pipeline.overhead_us_per_chunk"},
		"flat_session_tcp": {"core.wire.handshake_s", "core.wire.masked_window_s", "core.wire.client_masked_s", "transport.frames_per_round", "secagg.client.masked_s",
			"sig.sign_us", "transport.tcp_mb_per_s", "transport.dial_s", "ring.mask_ns_per_elem"},
		"sharded_mem": {"core.wire.transcript_s", "core.wire.combine_s", "secagg.server.finalize_s", "xnoise.noise_var_ratio", "core.wire.control_bytes_per_round",
			"combine.fold_s", "transcript.build_round_us", "sig.verify_us", "transport.mem_frame_us", "rng.skellam_ns_per_sample.epoch0"},
		"lsa_dropout": {"lightsecagg.client.seal_shares_s", "lightsecagg.server.recover_s", "pipeline.chunk_speedup",
			"skellam.decode_s", "xnoise.total_noise_s_per_client_chunk", "field.mul_ns", "aead.seal_us_1k", "engine.collect_us_per_frame"},
	}
	zero := map[string][]string{
		"flat_cold": {"core.wire.masked_window_s", "lightsecagg.client.seal_shares_s", "transport.frames_per_round",
			"transport.tcp_mb_per_s", "transport.mem_frame_us", "sig.sign_us", "combine.fold_s"},
		"flat_session_tcp": {"core.wire.combine_s", "lightsecagg.server.recover_s", "xnoise.noise_var_ratio",
			"xnoise.total_noise_s_per_client_chunk", "rng.skellam_ns_per_sample.epoch0", "skellam.encode_s_per_client",
			"transcript.build_round_us", "pipeline.overhead_us_per_chunk", "transport.mem_frame_us"},
		"sharded_mem": {"core.wire.handshake_s", "lightsecagg.client.masked_s", "pipeline.chunk_speedup",
			"skellam.encode_s_per_client", "pipeline.overhead_us_per_chunk", "transport.tcp_small_rtt_us", "transport.dial_s"},
		"lsa_dropout": {"secagg.client.sharekeys_s", "core.wire.masked_window_s",
			"shamir.split_us", "ring.mask_ns_per_elem", "sig.verify_us", "combine.decode_partial_us"},
	}
	for _, w := range rep.Workloads {
		rows := make(map[string]float64)
		for _, m := range w.PerLayer {
			rows[m.Name] = m.Value
		}
		for _, name := range nonZero[w.Name] {
			if rows[name] == 0 {
				t.Errorf("%s: %s = 0, want a measurement", w.Name, name)
			}
		}
		for _, name := range zero[w.Name] {
			if rows[name] != 0 {
				t.Errorf("%s: %s = %v on a workload that bypasses that layer", w.Name, name, rows[name])
			}
		}
	}

	// The report survives its own encoding, which is what -compare reads.
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back report
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if breaches, err := compareReports(io.Discard, rep, &back); err != nil || breaches != 0 {
		t.Errorf("a report compared with itself: %d breaches, %v", breaches, err)
	}
}

// TestCompare pins what -compare calls a breach and a schema mismatch.
func TestCompare(t *testing.T) {
	mk := func(round, rss float64, failed float64) *report {
		w := workloadReport{Name: "w"}
		vals := map[string]float64{"round_s_p10": round, "peak_rss_mb": rss, "failed_round_share": failed,
			"cpu_s_p10": 1, "alloc_mb_per_round": 1, "setup_s": 1}
		for _, d := range endToEnd {
			bound := d.Bound
			w.EndToEnd = append(w.EndToEnd, metricValue{Name: d.Name, Value: vals[d.Name], Unit: d.Unit,
				Better: d.Better, Bound: &bound})
		}
		return &report{Schema: reportSchema, Workloads: []workloadReport{w}}
	}
	var roundBound float64
	for _, d := range endToEnd {
		if d.Name == "round_s_p10" {
			roundBound = d.Bound
		}
	}
	for _, c := range []struct {
		name     string
		cand     *report
		breaches int
	}{
		{"identical", mk(1, 100, 0), 0},
		{"faster", mk(0.5, 100, 0), 0},
		{"within the bound", mk(1+roundBound*0.9, 100, 0), 0},
		{"beyond the bound", mk(1+roundBound*1.1, 100, 0), 1},
		{"a failed round where there was none", mk(1, 100, 0.01), 1},
	} {
		got, err := compareReports(io.Discard, mk(1, 100, 0), c.cand)
		if err != nil || got != c.breaches {
			t.Errorf("%s: %d breaches, %v; want %d", c.name, got, err, c.breaches)
		}
	}
	other := mk(1, 100, 0)
	other.Workloads[0].EndToEnd[0].Unit = "ms"
	if _, err := compareReports(io.Discard, mk(1, 100, 0), other); err == nil {
		t.Error("a changed unit is not reported as a schema mismatch")
	}
	other = mk(1, 100, 0)
	other.Workloads[0].Name = "v"
	if _, err := compareReports(io.Discard, mk(1, 100, 0), other); err == nil {
		t.Error("a renamed workload is not reported as a schema mismatch")
	}
}

// TestOracleBands pins the oracle's resolution: it must accept the noise
// the plan promises and reject the noise of a round that skipped its
// removal, at every full-size dimension.
func TestOracleBands(t *testing.T) {
	for _, c := range []struct {
		name               string
		dim                int
		want, skippedRatio float64
	}{
		{"flat_cold", 16384, 109, 56.0 / 48},
		{"lsa_dropout", 16384, 105, 28.0 / 24},
		{"sharded_mem", 1024, 100, 16.0 / 12},
	} {
		if err := checkNoise(0, c.want, c.want, c.dim); err != nil {
			t.Errorf("%s: exact noise rejected: %v", c.name, err)
		}
		if err := checkNoise(0, c.want*c.skippedRatio, c.want, c.dim); err == nil {
			t.Errorf("%s: variance ×%.2f (removal skipped) accepted", c.name, c.skippedRatio)
		}
		if err := checkNoise(math.Sqrt(c.want), c.want, c.want, c.dim); err == nil {
			t.Errorf("%s: a residual mean of one standard deviation accepted", c.name)
		}
	}
}

// TestManifest keeps BENCHMARK.json, which the driver reads, equal to the
// metric table the program reports from.
func TestManifest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk manifest
	if err := json.Unmarshal(raw, &onDisk); err != nil {
		t.Fatal(err)
	}
	if want := buildManifest(); !reflect.DeepEqual(onDisk, want) {
		t.Errorf("BENCHMARK.json differs from the metric table; regenerate it with `go run -C bench . -manifest`")
	}
}
