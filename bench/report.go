package main

import (
	"fmt"
	"runtime"
)

const reportSchema = "dordis-roundbench/1"

// report is the one JSON document a run prints: every metric by name,
// unit and direction, end-to-end metrics with their regression bound.
type report struct {
	Schema    string           `json:"schema"`
	Host      hostInfo         `json:"host"`
	Seed      uint64           `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Traced    bool             `json:"traced"`
	Workloads []workloadReport `json:"workloads"`
}

type workloadReport struct {
	Name            string        `json:"name"`
	Why             string        `json:"why"`
	RoundsAttempted int           `json:"rounds_attempted"`
	RoundsFailed    int           `json:"rounds_failed"`
	Failures        []string      `json:"failures,omitempty"`
	EndToEnd        []metricValue `json:"end_to_end"`
	PerLayer        []metricValue `json:"per_layer,omitempty"`
	// Passes lists every pass whose samples the rows above pool, so a
	// reader can see what each one contributed and how the host was.
	Passes []passSummary `json:"passes"`

	passErrors int // passes that produced no result at all
}

type passSummary struct {
	Kind      string  `json:"kind"` // "untraced", "traced" or "layers"
	CanaryS   float64 `json:"canary_s"`
	Rerun     bool    `json:"rerun,omitempty"` // replaced a disturbed pass
	Rounds    int     `json:"rounds,omitempty"`
	RoundP10S float64 `json:"round_s_p10,omitempty"`
	SetupS    float64 `json:"setup_s,omitempty"`
	Error     string  `json:"error,omitempty"`
}

type metricValue struct {
	Name   string   `json:"name"`
	Value  float64  `json:"value"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func (w workloadReport) endToEnd(name string) float64 {
	for _, m := range w.EndToEnd {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}

const mb = 1e6

// summarize pools a workload's passes into its rows of the report.
func summarize(spec workloadSpec, passes []*pass, traced bool, hostRows map[string]float64) workloadReport {
	wr := workloadReport{Name: spec.name, Why: spec.why}
	var (
		roundS, cpuS, setupS, upB, downB, frames []float64
		tracedRoundS                             []float64
		alloc, mallocs, gcPause, agree, gen      uint64
		gcCycles                                 uint32
		measured                                 int // rounds the deltas above cover
		peakRSS, varRatio                        float64
		noisy                                    int
		info                                     workloadInfo
		wire, layers                             map[string]float64
	)
	for _, p := range passes {
		ps := passSummary{Kind: "untraced", CanaryS: p.canary, Rerun: p.rerun}
		switch {
		case p.cfg.Layers:
			ps.Kind = "layers"
		case p.cfg.Traced:
			ps.Kind = "traced"
		}
		if p.err != nil {
			ps.Error = p.err.Error()
		} else if p.res != nil {
			ps.Rounds, ps.RoundP10S, ps.SetupS = len(p.res.RoundS), quantile(p.res.RoundS, 0.10), p.res.SetupS
		}
		wr.Passes = append(wr.Passes, ps)
		if p.err != nil {
			wr.passErrors++
			wr.RoundsAttempted++
			wr.RoundsFailed++
			wr.Failures = append(wr.Failures, p.err.Error())
			continue
		}
		if p.cfg.Layers {
			layers = p.layers
			continue
		}
		r := p.res
		wr.RoundsAttempted += r.Attempted
		wr.RoundsFailed += r.Failed
		wr.Failures = append(wr.Failures, r.Failures...)
		info = workloadInfo{clients: r.Clients, survivors: r.Survivors, dim: r.Dim}
		if r.Traced {
			tracedRoundS = r.RoundS
			wire = r.Wire
			continue
		}
		roundS = append(roundS, r.RoundS...)
		cpuS = append(cpuS, r.CPUS...)
		setupS = append(setupS, r.SetupS)
		upB = append(upB, medianU64(r.BytesUp))
		downB = append(downB, medianU64(r.BytesDown))
		frames = append(frames, medianU64(r.Frames))
		alloc += r.AllocBytes
		mallocs += r.Mallocs
		gcCycles += r.GCCycles
		gcPause += r.GCPauseNs
		agree += r.Agreements
		gen += r.Generations
		measured += r.Attempted
		peakRSS = max(peakRSS, r.PeakRSSMB)
		if r.NoiseVarRatio != 0 {
			varRatio += r.NoiseVarRatio
			noisy++
		}
	}
	perRound := func(total float64) float64 {
		if measured == 0 {
			return 0
		}
		return total / float64(measured)
	}
	p10 := quantile(roundS, 0.10)
	cpu10 := quantile(cpuS, 0.10)
	var wireBytes float64
	if spec.wire && info.clients > 0 {
		wireBytes = (median(upB) + median(downB)) / float64(info.clients)
	}
	var failedShare float64
	if wr.RoundsAttempted > 0 {
		failedShare = float64(wr.RoundsFailed) / float64(wr.RoundsAttempted)
	}
	e2e := map[string]float64{
		"round_s_p10":           p10,
		"cpu_s_p10":             cpu10,
		"alloc_mb_per_round":    perRound(float64(alloc)) / mb,
		"peak_rss_mb":           peakRSS,
		"wire_bytes_per_client": wireBytes,
		"setup_s":               median(setupS),
		"failed_round_share":    failedShare,
	}
	for _, d := range endToEnd {
		bound := d.Bound
		wr.EndToEnd = append(wr.EndToEnd, metricValue{Name: d.Name, Value: e2e[d.Name],
			Unit: d.Unit, Better: d.Better, Bound: &bound})
	}
	if !traced {
		return wr
	}

	rows := make(map[string]float64, len(perLayer))
	for k, v := range wire {
		rows[k] = v
	}
	for k, v := range layers {
		rows[k] = v
	}
	for k, v := range hostRows {
		rows[k] = v
	}
	rows["core.round_s_p50"] = median(roundS)
	rows["core.round_s_p90"] = quantile(roundS, 0.90)
	rows["core.round_samples"] = float64(len(roundS))
	if p10 > 0 {
		rows["core.agg_mcoords_per_s"] = float64(info.survivors) * float64(info.dim) / p10 / 1e6
		// Σ busy time of the stepped state machines over what the round
		// had: its fastest wall time on every processor.
		rows["secagg.parallel_efficiency"] = layers[steppedBusyKey] / (p10 * float64(runtime.GOMAXPROCS(0)))
		if t10 := quantile(tracedRoundS, 0.10); t10 > 0 {
			rows["trace.overhead_pct"] = 100 * (t10/p10 - 1)
		}
	}
	if spec.wire && info.clients > 0 {
		rows["transport.bytes_up_per_client"] = median(upB) / float64(info.clients)
		rows["transport.bytes_down_per_client"] = median(downB) / float64(info.clients)
		rows["transport.frames_per_round"] = median(frames)
	}
	if noisy > 0 {
		rows["xnoise.noise_var_ratio"] = varRatio / float64(noisy)
	}
	rows["dh.agreements_per_round"] = perRound(float64(agree))
	rows["dh.generations_per_round"] = perRound(float64(gen))
	rows["runtime.allocs_per_round"] = perRound(float64(mallocs))
	rows["runtime.gc_cycles_per_round"] = perRound(float64(gcCycles))
	rows["runtime.gc_pause_ms_per_round"] = perRound(float64(gcPause)) / 1e6
	for _, d := range perLayer {
		wr.PerLayer = append(wr.PerLayer, metricValue{Name: d.Name, Value: rows[d.Name],
			Unit: d.Unit, Better: d.Better})
	}
	return wr
}

// contractResult is the driver's one-line result.
type contractResult struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractLine is the last line of a single-workload run: the listed
// end-to-end metrics of an untraced run, every per-layer metric of a
// traced one.
func contractLine(w workloadReport, traced bool) contractResult {
	res := contractResult{Correct: w.RoundsFailed == 0 && w.RoundsAttempted > 0,
		Attempted: max(w.RoundsAttempted, 1), Failed: w.RoundsFailed,
		Metrics: make(map[string]contractMetric)}
	if traced {
		for _, m := range w.PerLayer {
			res.Metrics[m.Name] = contractMetric{Value: m.Value, Unit: m.Unit}
		}
		return res
	}
	for _, d := range endToEnd {
		if d.Contract {
			res.Metrics[d.Name] = contractMetric{Value: w.endToEnd(d.Name), Unit: d.Unit}
		}
	}
	return res
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []manifestMetric   `json:"end_to_end"`
	PerLayer   []manifestMetric   `json:"per_layer"`
}

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// runSeconds is how long the driver lets one run measure. Its 92 runs and
// two cold builds must end within 3420 s even if every run re-ran two
// passes: 92 × 5 passes × (15/3 s + ~2 s of set-up and canaries) ≈ 3270 s.
// A typical run re-runs none and takes 21 s.
const runSeconds = 15

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		if len(w.why) > 200 {
			panic(fmt.Sprintf("workload %s: why is %d characters, the manifest allows 200", w.name, len(w.why)))
		}
		m.Workloads = append(m.Workloads, manifestWorkload{Name: w.name, Why: w.why})
	}
	for _, d := range endToEnd {
		if d.Contract {
			bound := d.Bound
			m.EndToEnd = append(m.EndToEnd, manifestMetric{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: &bound})
		}
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestMetric{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	return m
}
