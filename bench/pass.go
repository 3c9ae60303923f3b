package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/dh"
)

// A pass is one workload run in one fresh process: set-up, unmeasured
// warm-up rounds, then measured rounds one at a time until the time
// budget is spent. The parent pools the samples of several passes.

// passConfig is what the parent tells a child.
type passConfig struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"` // measure this long
	Rounds   int     `json:"rounds"`  // smoke test: measure this many rounds instead
	Warmup   int     `json:"warmup"`
	Small    bool    `json:"small"`  // reduced dimensions (smoke test)
	Traced   bool    `json:"traced"` // record per-frame tap events
	TraceOut string  `json:"trace_out,omitempty"`
	// SpawnedAt is when the parent started the child (Unix ns), so that
	// set-up time includes process start; 0 starts the clock here.
	SpawnedAt int64 `json:"spawned_at"`
}

// passResult is what a child reports back.
type passResult struct {
	Workload  string    `json:"workload"`
	Traced    bool      `json:"traced"`
	SetupS    float64   `json:"setup_s"`
	RoundS    []float64 `json:"round_s"` // wall time of each round that passed the oracle
	CPUS      []float64 `json:"cpu_s"`   // process CPU of the same rounds
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Failures  []string  `json:"failures,omitempty"`

	Clients   int `json:"clients"`
	Survivors int `json:"survivors"`
	Dim       int `json:"dim"`

	// deltas over the measured rounds
	AllocBytes  uint64  `json:"alloc_bytes"`
	Mallocs     uint64  `json:"mallocs"`
	GCCycles    uint32  `json:"gc_cycles"`
	GCPauseNs   uint64  `json:"gc_pause_ns"`
	Agreements  uint64  `json:"agreements"`
	Generations uint64  `json:"generations"`
	PeakRSSMB   float64 `json:"peak_rss_mb"`

	// per measured round, from the always-on tap counters (wire workloads)
	BytesUp   []uint64 `json:"bytes_up,omitempty"`
	BytesDown []uint64 `json:"bytes_down,omitempty"`
	Frames    []uint64 `json:"frames,omitempty"`

	NoiseVarRatio float64 `json:"noise_var_ratio"` // mean over noisy rounds
	// Wire holds the tap-derived per-layer metrics of a traced pass.
	Wire map[string]float64 `json:"wire,omitempty"`
}

// maxFailures ends a pass early: a round that fails by hanging costs a
// full stage deadline, and three in a row say the pass is not measuring
// anything.
const maxFailures = 3

func runPass(cfg passConfig) (*passResult, error) {
	spec, ok := findWorkload(cfg.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	if cfg.Seconds <= 0 && cfg.Rounds <= 0 {
		return nil, fmt.Errorf("pass needs a time or a round budget")
	}
	started := time.Now()
	if cfg.SpawnedAt > 0 {
		started = time.Unix(0, cfg.SpawnedAt)
	}
	tr := newTracer(cfg.Traced)
	w, err := spec.open(cfg.Seed, cfg.Small, tr)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", cfg.Workload, err)
	}
	round := 0
	for ; round < cfg.Warmup; round++ {
		if err := oneRound(w, tr, round+1, nil); err != nil {
			w.close()
			return nil, fmt.Errorf("%s: warm-up round %d: %w", cfg.Workload, round+1, err)
		}
	}

	info := w.info()
	res := &passResult{Workload: cfg.Workload, Traced: cfg.Traced,
		Clients: info.clients, Survivors: info.survivors, Dim: info.dim}
	runtime.GC() // every pass starts measuring from a collected heap
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	agree0, gen0 := dh.AgreeCount(), dh.GenerateCount()
	firstMeasured := round + 1
	res.SetupS = time.Since(started).Seconds()

	var noisy int
	measureStart := time.Now()
	for {
		if cfg.Rounds > 0 && res.Attempted >= cfg.Rounds {
			break
		}
		if cfg.Seconds > 0 && time.Since(measureStart).Seconds() >= cfg.Seconds {
			break
		}
		round++
		res.Attempted++
		var s roundSample
		if err := oneRound(w, tr, round, &s); err != nil {
			res.Failed++
			if len(res.Failures) < maxFailures {
				res.Failures = append(res.Failures, fmt.Sprintf("round %d: %v", round, err))
			}
			if res.Failed >= maxFailures {
				break
			}
			continue
		}
		res.RoundS = append(res.RoundS, s.wall)
		res.CPUS = append(res.CPUS, s.cpu)
		if spec.wire {
			res.BytesUp = append(res.BytesUp, s.wire.up)
			res.BytesDown = append(res.BytesDown, s.wire.down)
			res.Frames = append(res.Frames, s.wire.frames)
		}
		if s.check.noiseVarRatio != 0 {
			res.NoiseVarRatio += s.check.noiseVarRatio
			noisy++
		}
	}
	runtime.ReadMemStats(&ms1)
	res.AllocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	res.Mallocs = ms1.Mallocs - ms0.Mallocs
	res.GCCycles = ms1.NumGC - ms0.NumGC
	res.GCPauseNs = ms1.PauseTotalNs - ms0.PauseTotalNs
	res.Agreements = dh.AgreeCount() - agree0
	res.Generations = dh.GenerateCount() - gen0
	res.PeakRSSMB = peakRSSMB()
	if noisy > 0 {
		res.NoiseVarRatio /= float64(noisy)
	}
	if err := w.close(); err != nil {
		res.Failed++
		res.Failures = append(res.Failures, err.Error())
	}
	if cfg.Traced {
		if unknown := tr.unknownTags(); len(unknown) > 0 {
			res.Failed++
			res.Failures = append(res.Failures, fmt.Sprintf(
				"frames with stage tags %#x that bench/taps.go does not know: update its table from PROTOCOL.md", unknown))
		}
		spans := tr.spans()
		res.Wire = wireMetrics(tr, spans, info, uint32(firstMeasured))
		if cfg.TraceOut != "" {
			if err := writeTrace(cfg.TraceOut, spans); err != nil {
				return nil, fmt.Errorf("writing trace: %w", err)
			}
		}
	}
	return res, nil
}

type roundSample struct {
	wall, cpu float64
	wire      wireCounts
	check     roundCheck
}

// oneRound runs round i and its oracle. Only w.run is timed: preparation
// before it and the oracle after it cost the benchmark, not the round.
func oneRound(w workload, tr *tracer, i int, s *roundSample) error {
	if err := w.prepare(i); err != nil {
		return fmt.Errorf("prepare: %w", err)
	}
	before := tr.counts() // all zero on the in-process workloads: no taps
	cpu0, t0 := processCPU(), time.Now()
	err := w.run(i)
	wall, cpu := time.Since(t0).Seconds(), processCPU()-cpu0
	after := tr.counts()
	wire := wireCounts{up: after.up - before.up, down: after.down - before.down,
		frames: after.frames - before.frames}
	if err != nil {
		return err
	}
	rc, err := w.check()
	if err != nil {
		return err
	}
	if s != nil {
		*s = roundSample{wall: wall, cpu: cpu, wire: wire, check: rc}
	}
	return nil
}
