package pipeline

import (
	"context"
	"fmt"
	"sync"
)

// StageFunc executes one stage's work for one chunk. chunk is the chunk
// index in [0, m).
type StageFunc func(chunk int) error

// Executor runs real chunk-aggregation work on the Appendix C schedule that
// Simulate evaluates, with one loop per resource: each loop runs its stages
// in workflow order and, within a stage, chunks 0..m−1, waiting before
// chunk-stage (s, c) only for (s−1, c) (constraint 4); constraint 5 is the
// loop order itself. It is what Dordis's server uses to overlap
// encode/upload/aggregate/dispatch/decode work across chunks (§4.1).
type Executor struct {
	workflow Workflow
	fns      []StageFunc
	loops    [][]int // stage indices per resource, in workflow order
}

// NewExecutor pairs a workflow with its per-stage implementations.
func NewExecutor(w Workflow, fns []StageFunc) (*Executor, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if len(fns) != len(w) {
		return nil, fmt.Errorf("pipeline: %d stage funcs for %d stages", len(fns), len(w))
	}
	for s, fn := range fns {
		if fn == nil {
			return nil, fmt.Errorf("pipeline: nil func for stage %d (%s)", s, w[s].Name)
		}
	}
	// A stage joins the loop of q, the previous stage on its resource, or
	// opens a loop of its own.
	var loops [][]int
	loopOf := make([]int, len(w))
	for s, q := range w.prevSameResource() {
		if q < 0 {
			loopOf[s] = len(loops)
			loops = append(loops, nil)
		} else {
			loopOf[s] = loopOf[q]
		}
		loops[loopOf[s]] = append(loops[loopOf[s]], s)
	}
	return &Executor{workflow: w, fns: fns, loops: loops}, nil
}

// Run executes all m chunks through all stages. The first stage error stops
// every loop before its next chunk-stage, so no later chunk of the failed
// stage and no later stage of the failed chunk starts, and Run returns it.
func (e *Executor) Run(m int) error {
	if m < 1 {
		return fmt.Errorf("pipeline: m must be ≥ 1, got %d", m)
	}
	// done[s][c] closes when chunk-stage (s, c) succeeds.
	done := make([][]chan struct{}, len(e.workflow))
	for s := range done {
		done[s] = make([]chan struct{}, m)
		for c := range done[s] {
			done[s][c] = make(chan struct{})
		}
	}
	ctx, stop := context.WithCancelCause(context.Background())
	defer stop(nil)
	var wg sync.WaitGroup
	for _, stages := range e.loops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, s := range stages {
				for c := range m {
					if s > 0 {
						select {
						case <-done[s-1][c]:
						case <-ctx.Done():
							return
						}
					}
					if ctx.Err() != nil {
						return
					}
					if err := e.fns[s](c); err != nil {
						stop(fmt.Errorf("pipeline: stage %s chunk %d: %w", e.workflow[s].Name, c, err))
						return
					}
					close(done[s][c])
				}
			}
		}()
	}
	wg.Wait()
	if ctx.Err() != nil {
		return context.Cause(ctx)
	}
	return nil
}
