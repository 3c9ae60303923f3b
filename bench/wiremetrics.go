package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the "inclusive" method); xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func medianU64(xs []uint64) float64 {
	f := make([]float64, len(xs))
	for i, x := range xs {
		f[i] = float64(x)
	}
	return median(f)
}

// spanMetric maps a span name to the per-layer metric it feeds.
var spanMetric = map[string]string{
	"handshake":          "core.wire.handshake_s",
	"advertise_window":   "core.wire.advertise_window_s",
	"shares_window":      "core.wire.shares_window_s",
	"masked_window":      "core.wire.masked_window_s",
	"consistency_window": "core.wire.consistency_window_s",
	"unmask_window":      "core.wire.unmask_window_s",
	"result":             "core.wire.result_s",
	"transcript":         "core.wire.transcript_s",
	"combine":            "core.wire.combine_s",
	"client_sharekeys":   "core.wire.client_sharekeys_s",
	"client_masked":      "core.wire.client_masked_s",
	"client_unmask":      "core.wire.client_unmask_s",
}

// wireMetrics reduces a traced pass to the core.wire.* rows: for every
// span kind, the mean over the parties that have it in a round (the four
// shard servers, the 32 or 64 clients), then the median over measured
// rounds.
func wireMetrics(tr *tracer, spans []span, info workloadInfo, firstMeasured uint32) map[string]float64 {
	type key struct {
		name  string
		round uint32
	}
	sum := make(map[key]float64)
	cnt := make(map[key]int)
	for _, s := range spans {
		if s.Round < firstMeasured || spanMetric[s.Name] == "" {
			continue
		}
		k := key{s.Name, s.Round}
		sum[k] += s.seconds()
		cnt[k]++
	}
	perRound := make(map[string][]float64)
	for k, v := range sum {
		perRound[k.name] = append(perRound[k.name], v/float64(cnt[k]))
	}
	out := make(map[string]float64, len(spanMetric)+2)
	for name, metric := range spanMetric {
		out[metric] = median(perRound[name])
	}

	// Byte shares come from the server-side events: every frame crosses
	// exactly one server tap.
	var total, masked, maskedFrames, result uint64
	rounds := make(map[uint32]bool)
	tr.mu.Lock()
	for _, t := range tr.taps {
		if !t.server {
			continue
		}
		t.mu.Lock()
		for _, e := range t.events {
			if e.round < firstMeasured {
				continue
			}
			rounds[e.round] = true
			total += uint64(e.bytes)
			switch {
			case e.tag == tagMasked && e.dir == dirRecv:
				masked += uint64(e.bytes)
				maskedFrames++
			case e.tag == tagResult && e.dir == dirSend:
				result += uint64(e.bytes)
			}
		}
		t.mu.Unlock()
	}
	tr.mu.Unlock()
	if maskedFrames > 0 && info.dim > 0 {
		// dim is the whole round's; each masked frame carries one
		// client's share of it (a shard client sends dim coordinates too).
		out["core.wire.masked_bytes_per_coord"] = float64(masked) / float64(maskedFrames) / float64(info.dim)
	}
	if len(rounds) > 0 {
		// Everything that is not a vector: the masked uploads and the
		// result broadcast carry dim coordinates each, the rest is control.
		out["core.wire.control_bytes_per_round"] = float64(total-masked-result) / float64(len(rounds))
	}
	return out
}
