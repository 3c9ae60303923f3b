package main

import (
	"fmt"
	"time"
)

// steppedBusyKey carries the stepped round's CPU from the layers child to
// the parent, which divides it by the untraced round time; it is not a
// reported metric itself.
const steppedBusyKey = "stepped.busy_s"

// steppedRounds is how many stepped rounds are averaged, after one
// unreported round that warms caches and lazy tables.
const steppedRounds = 2

// speedupRounds is how many rounds each side of pipeline.chunk_speedup
// runs; the fastest of each side is compared.
const speedupRounds = 3

// runLayers produces the per-layer rows that need no concurrent round:
// the stepped state machines, the leaf kernels, and the chunk pipeline's
// speed-up.
func runLayers(cfg passConfig) (map[string]float64, error) {
	spec, ok := findWorkload(cfg.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	ks, err := kernelShapeOf(cfg.Workload, cfg.Small)
	if err != nil {
		return nil, err
	}
	budget := kernelBudget
	if cfg.Small {
		budget = kernelBudgetSmall
	}
	out, err := runKernels(cfg.Seed, ks, budget)
	if err != nil {
		return nil, err
	}

	var busy float64
	for r := 0; r <= steppedRounds; r++ {
		st, b, err := steppedRound(cfg.Workload, cfg.Seed, cfg.Small, r+1)
		if err != nil {
			return nil, fmt.Errorf("%s: stepped round: %w", cfg.Workload, err)
		}
		if r == 0 {
			continue
		}
		busy += b / steppedRounds
		for k, v := range st.metrics(ks.perRound) {
			out[k] += v / steppedRounds
		}
	}
	out[steppedBusyKey] = busy

	if !spec.wire {
		speedup, err := chunkSpeedup(spec, cfg)
		if err != nil {
			return nil, err
		}
		out["pipeline.chunk_speedup"] = speedup
	}
	return out, nil
}

// chunkSpeedup is the workload's own round at Chunks = 1 over the same
// round at its configured chunk count, fastest of speedupRounds each,
// alternating so both sides see the same host.
func chunkSpeedup(spec workloadSpec, cfg passConfig) (float64, error) {
	open := func(chunks int) (*flatWorkload, error) {
		w, err := spec.open(cfg.Seed, cfg.Small, nil)
		if err != nil {
			return nil, err
		}
		fw := w.(*flatWorkload)
		if chunks > 0 {
			fw.cfg.Chunks = chunks
		}
		return fw, nil
	}
	plain, err := open(1)
	if err != nil {
		return 0, err
	}
	chunked, err := open(0)
	if err != nil {
		return 0, err
	}
	best := [2]float64{}
	for r := 0; r <= speedupRounds; r++ {
		for side, w := range []*flatWorkload{plain, chunked} {
			t0 := time.Now()
			if err := w.run(r + 1); err != nil {
				return 0, fmt.Errorf("%s at %d chunks: %w", spec.name, w.cfg.Chunks, err)
			}
			d := time.Since(t0).Seconds()
			if _, err := w.check(); err != nil {
				return 0, fmt.Errorf("%s at %d chunks: %w", spec.name, w.cfg.Chunks, err)
			}
			if r > 0 && (best[side] == 0 || d < best[side]) { // round 0 warms up
				best[side] = d
			}
		}
	}
	return best[0] / best[1], nil
}
