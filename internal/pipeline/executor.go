package pipeline

import (
	"fmt"
	"sync"
)

// StageFunc executes one stage's work for one chunk. chunk is the chunk
// index in [0, m).
type StageFunc func(chunk int) error

// Executor runs real chunk-aggregation work with pipeline parallelism: m
// chunk workers traverse the workflow's stages in order while each
// resource admits one chunk-stage at a time — the runtime counterpart of
// the Appendix C schedule. It is what Dordis's server uses to overlap
// encode/upload/aggregate/dispatch/decode work across chunks (§4.1).
type Executor struct {
	workflow Workflow
	fns      []StageFunc
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
	return &Executor{workflow: w, fns: fns}, nil
}

// Gate serializes access to one resource in FIFO admission order. It is
// the schedule's resource-exclusivity primitive (Appendix C): the
// pipeline executor holds one Gate per resource.
type Gate struct {
	mu      sync.Mutex
	cond    *sync.Cond
	next    uint64 // next ticket to issue
	serving uint64 // ticket currently allowed to run
}

// NewGate returns an open gate.
func NewGate() *Gate {
	g := &Gate{}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// Acquire takes the next ticket and blocks until it is served. Every
// Acquire must be followed by exactly one Release, or the gate stalls.
func (g *Gate) Acquire() {
	g.mu.Lock()
	t := g.next
	g.next++
	for g.serving != t {
		g.cond.Wait()
	}
	g.mu.Unlock()
}

// Release admits the next ticket.
func (g *Gate) Release() {
	g.mu.Lock()
	g.serving++
	g.mu.Unlock()
	g.cond.Broadcast()
}

// Run executes all m chunks through all stages. The first stage error
// aborts the run (remaining chunk workers finish their current stage and
// stop). Chunks enter each resource in chunk order for the first stage;
// downstream admission order emerges from completion order, as in a real
// pipeline.
func (e *Executor) Run(m int) error {
	if m < 1 {
		return fmt.Errorf("pipeline: m must be ≥ 1, got %d", m)
	}
	gates := make([]*Gate, numResources)
	for i := range gates {
		gates[i] = NewGate()
	}
	// doneCh[s][c] closes when stage s of chunk c completes; chunk c's
	// worker waits for its predecessor chunk at the same stage before
	// acquiring the resource, which keeps per-stage chunk order (Appendix
	// C constraint 5, first case) and prevents out-of-order admission.
	done := make([][]chan struct{}, len(e.workflow))
	for s := range done {
		done[s] = make([]chan struct{}, m)
		for c := range done[s] {
			done[s][c] = make(chan struct{})
		}
	}

	var wg sync.WaitGroup
	errCh := make(chan error, m)
	abort := make(chan struct{})
	var abortOnce sync.Once

	for c := 0; c < m; c++ {
		wg.Add(1)
		go func(chunk int) {
			defer wg.Done()
			for s := range e.workflow {
				// Wait for the same stage of the previous chunk.
				if chunk > 0 {
					select {
					case <-done[s][chunk-1]:
					case <-abort:
						return
					}
				}
				g := gates[e.workflow[s].Resource]
				g.Acquire()
				err := e.fns[s](chunk)
				g.Release()
				close(done[s][chunk])
				if err != nil {
					errCh <- fmt.Errorf("pipeline: stage %s chunk %d: %w", e.workflow[s].Name, chunk, err)
					abortOnce.Do(func() { close(abort) })
					return
				}
			}
		}(c)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		return err
	default:
		return nil
	}
}
