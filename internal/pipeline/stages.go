// Package pipeline implements Dordis's pipeline-parallel aggregation (§4):
// the stage abstraction of Table 1, the performance model of Eq. 3, the
// profiling-based parameter fit, the discrete-event schedule simulator of
// Appendix C, the optimal chunk-count solver, and a concurrent executor
// that runs real chunk-aggregation work on the schedule the simulator
// evaluates.
package pipeline

import "fmt"

// Resource is a system resource with exclusive occupancy: at any moment at
// most one chunk-stage runs on each resource (Appendix C, principle 1).
type Resource int

// The three resource classes of §4 ("Technical Intuition").
const (
	ClientCompute Resource = iota // c-comp
	Communication                 // comm
	ServerCompute                 // s-comp
	numResources
)

// String implements fmt.Stringer.
func (r Resource) String() string {
	switch r {
	case ClientCompute:
		return "c-comp"
	case Communication:
		return "comm"
	case ServerCompute:
		return "s-comp"
	default:
		return fmt.Sprintf("Resource(%d)", int(r))
	}
}

// StageSpec is one pipeline stage: a named group of consecutive workflow
// steps sharing a dominant resource (Table 1).
type StageSpec struct {
	Name     string
	Resource Resource
}

// Workflow is an ordered stage sequence. By construction of the staging
// (grouping consecutive same-resource steps), adjacent stages use
// different resources.
type Workflow []StageSpec

// Validate checks the adjacency property and non-emptiness.
func (w Workflow) Validate() error {
	if len(w) == 0 {
		return fmt.Errorf("pipeline: empty workflow")
	}
	for i := 1; i < len(w); i++ {
		if w[i].Resource == w[i-1].Resource {
			return fmt.Errorf("pipeline: stages %q and %q share resource %v (should be merged)",
				w[i-1].Name, w[i].Name, w[i].Resource)
		}
	}
	return nil
}

// DistributedDPWorkflow returns the 5-stage staging of the
// dropout-resilient distributed-DP workflow from Table 1:
//
//	1 (c-comp): clients encode updates, generate keys, establish shared
//	            secrets, mask encoded updates
//	2 (comm):   clients upload masked updates
//	3 (s-comp): server deals with dropout, computes the aggregate, updates
//	            the global model
//	4 (comm):   server dispatches the aggregate
//	5 (c-comp): clients decode and use the aggregate
func DistributedDPWorkflow() Workflow {
	return Workflow{
		{Name: "client-encode-mask", Resource: ClientCompute},
		{Name: "upload", Resource: Communication},
		{Name: "server-aggregate", Resource: ServerCompute},
		{Name: "dispatch", Resource: Communication},
		{Name: "client-decode", Resource: ClientCompute},
	}
}

// prevSameResource returns, for each stage, the index of the latest earlier
// stage using the same resource, or -1 (the q of Appendix C constraint 5).
func (w Workflow) prevSameResource() []int {
	out := make([]int, len(w))
	for s := range w {
		out[s] = -1
		for q := s - 1; q >= 0; q-- {
			if w[q].Resource == w[s].Resource {
				out[s] = q
				break
			}
		}
	}
	return out
}
