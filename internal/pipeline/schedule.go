package pipeline

import (
	"fmt"
	"math"
)

// Interval is the scheduled execution window of one (stage, chunk)
// sub-task in the simulated timeline.
type Interval struct {
	Stage, Chunk int
	Start, End   float64
}

// Schedule is the full simulated timeline for one round.
type Schedule struct {
	M         int
	Intervals []Interval // ordered by (stage, chunk)
	Makespan  float64
}

// Simulate computes the pipeline schedule of m equal chunks through the
// workflow with per-stage sub-task times tau, under the two Appendix C
// constraints:
//
//	(4) each chunk traverses stages in order:        b_{s,c} ≥ f_{s−1,c}
//	(5) one chunk per resource at a time, with same-resource stages
//	    processed in order:  b_{s,c} ≥ f_{s,c−1}, and b_{s,0} ≥ f_{q,m−1}
//	    where q is the previous stage on the same resource.
//
// The returned makespan is f_{a,m}, the completion of the last stage for
// the last chunk.
func Simulate(w Workflow, tau []float64, m int) (Schedule, error) {
	if err := w.Validate(); err != nil {
		return Schedule{}, err
	}
	if len(tau) != len(w) {
		return Schedule{}, fmt.Errorf("pipeline: %d stage times for %d stages", len(tau), len(w))
	}
	if m < 1 {
		return Schedule{}, fmt.Errorf("pipeline: m must be ≥ 1, got %d", m)
	}
	for s, t := range tau {
		if t < 0 || math.IsNaN(t) {
			return Schedule{}, fmt.Errorf("pipeline: stage %d has invalid time %v", s, t)
		}
	}
	prev := w.prevSameResource()
	a := len(w)
	f := make([][]float64, a)
	for s := range f {
		f[s] = make([]float64, m)
	}
	sched := Schedule{M: m, Intervals: make([]Interval, 0, a*m)}
	for s := 0; s < a; s++ {
		for c := 0; c < m; c++ {
			start := 0.0
			if s > 0 && f[s-1][c] > start {
				start = f[s-1][c]
			}
			if c > 0 {
				if f[s][c-1] > start {
					start = f[s][c-1]
				}
			} else if q := prev[s]; q >= 0 && f[q][m-1] > start {
				start = f[q][m-1]
			}
			f[s][c] = start + tau[s]
			sched.Intervals = append(sched.Intervals, Interval{Stage: s, Chunk: c, Start: start, End: f[s][c]})
		}
	}
	sched.Makespan = f[a-1][m-1]
	return sched, nil
}

// PlainTime returns the non-pipelined round time: one chunk (m = 1)
// traversing all stages sequentially.
func PlainTime(w Workflow, pm PerfModel, d float64) (float64, error) {
	sched, err := Simulate(w, pm.StageTimes(d, 1), 1)
	if err != nil {
		return 0, err
	}
	return sched.Makespan, nil
}

// DefaultMaxChunks bounds the optimal-m enumeration; Appendix C notes
// m ∈ [20] suffices in practice.
const DefaultMaxChunks = 20

// OptimalChunks solves the Appendix C optimization: the m ∈ [1, maxM]
// minimizing the simulated makespan under the profiled performance model,
// for an update of size d. maxM ≤ 0 selects DefaultMaxChunks.
func OptimalChunks(w Workflow, pm PerfModel, d float64, maxM int) (bestM int, bestTime float64, err error) {
	if err := pm.Validate(w); err != nil {
		return 0, 0, err
	}
	if maxM <= 0 {
		maxM = DefaultMaxChunks
	}
	bestTime = math.Inf(1)
	for m := 1; m <= maxM; m++ {
		sched, err := Simulate(w, pm.StageTimes(d, m), m)
		if err != nil {
			return 0, 0, err
		}
		if sched.Makespan < bestTime {
			bestTime = sched.Makespan
			bestM = m
		}
	}
	return bestM, bestTime, nil
}
