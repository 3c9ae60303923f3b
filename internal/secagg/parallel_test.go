package secagg

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/prg"
	"repro/internal/ring"
)

// seededTasks returns n self-mask tasks over distinct seeds with mixed
// signs, their resolver, the reference Σ sign_i·PRG_i applied to a copy of
// dst one stream at a time, and a per-task count of resolver calls.
func seededTasks(t *testing.T, dst ring.Vector, n int) (tasks []maskTask, stream func(maskTask) (*prg.Stream, error), want ring.Vector, made []atomic.Int32) {
	t.Helper()
	want = dst.Clone()
	made = make([]atomic.Int32, n)
	seed := func(id uint64) prg.Seed { return prg.NewSeed([]byte(fmt.Sprintf("task-%d", id))) }
	for i := 0; i < n; i++ {
		sign := 1 - 2*(i%2)
		tasks = append(tasks, maskTask{sign: int8(sign), id: uint64(i), self: true})
		if err := want.MaskInPlace(prg.NewStream(seed(uint64(i))), sign); err != nil {
			t.Fatal(err)
		}
	}
	stream = func(task maskTask) (*prg.Stream, error) {
		made[task.id].Add(1)
		return prg.NewStream(seed(task.id)), nil
	}
	return tasks, stream, want, made
}

// TestApplyMaskTasksSegmentedMatchesSequential: at many blocks the range
// workers split the destination; the in-place result must equal applying
// the streams one by one on top of what dst already held, whatever the
// worker count, and every task's stream must be built exactly once.
func TestApplyMaskTasksSegmentedMatchesSequential(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const bits = 20
	dim := 5*ring.MaskBlockLen(bits) + 1021
	for _, procs := range []int{1, 2, 4, 8} {
		runtime.GOMAXPROCS(procs)
		for _, ntasks := range []int{1, 2, 3, 33} {
			dst := ring.NewVector(bits, dim)
			for i := range dst.Data {
				dst.Data[i] = uint64(i) & dst.Mask()
			}
			tasks, stream, want, made := seededTasks(t, dst, ntasks)
			if err := applyMaskTasks(dst, tasks, 0, stream); err != nil {
				t.Fatal(err)
			}
			if !ring.Equal(dst, want) {
				t.Errorf("procs=%d ntasks=%d: range fan-out differs from sequential expansion", procs, ntasks)
			}
			for i := range made {
				if n := made[i].Load(); n != 1 {
					t.Errorf("procs=%d ntasks=%d: task %d stream built %d times, want exactly once", procs, ntasks, i, n)
				}
			}
		}
	}
}

// TestApplyMaskTasksSegmentedError is the abort path: a failing stream
// resolver (a bad peer key) returns that first error, no stream is
// expanded — the destination is untouched and no task is resolved after
// the failure was seen — and every worker goroutine has exited on return.
func TestApplyMaskTasksSegmentedError(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	boom := errors.New("agreement failed")
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		before := runtime.NumGoroutine()
		var madeAfter atomic.Int32
		tasks := make([]maskTask, 65)
		for i := range tasks {
			tasks[i] = maskTask{sign: 1, id: uint64(i), self: true}
		}
		stream := func(task maskTask) (*prg.Stream, error) {
			if task.id == 0 {
				return nil, boom
			}
			madeAfter.Add(1)
			time.Sleep(time.Millisecond) // an agreement's worth of work
			return prg.NewStream(prg.NewSeed([]byte("ok"))), nil
		}
		dst := ring.NewVector(20, 3*ring.MaskBlockLen(20))
		if err := applyMaskTasks(dst, tasks, 0, stream); !errors.Is(err, boom) {
			t.Fatalf("procs=%d: got err %v, want %v", procs, err, boom)
		}
		if !ring.Equal(dst, ring.NewVector(20, dst.Len())) {
			t.Errorf("procs=%d: destination changed although a stream failed to build", procs)
		}
		// Task 0 fails at once; the other workers are inside their first
		// make when it does and must not claim a second.
		if n := int(madeAfter.Load()); n > len(tasks)/2 {
			t.Errorf("procs=%d: %d of %d streams built although the first failed", procs, n, len(tasks)-1)
		}
		for i := 0; runtime.NumGoroutine() > before && i < 100; i++ {
			time.Sleep(time.Millisecond) // exited goroutines are reaped asynchronously
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("procs=%d: %d goroutines before, %d after: fan-out leaked", procs, before, n)
		}
	}
}

// TestApplyMaskTasksSmallDimUnchanged: a destination of at most one block
// — the chunked rounds' shape — is a single range, which engine.ForEach runs on
// the calling goroutine, and still matches sequential expansion.
func TestApplyMaskTasksSmallDimUnchanged(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, dim := range []int{1000, 2048} { // sharded_mem's and flat_cold's chunk
		if dim > ring.MaskBlockLen(16) {
			t.Fatalf("dim %d is more than one block", dim)
		}
		dst := ring.NewVector(16, dim)
		tasks, stream, want, _ := seededTasks(t, dst, 5)
		if err := applyMaskTasks(dst, tasks, 0, stream); err != nil {
			t.Fatal(err)
		}
		if !ring.Equal(dst, want) {
			t.Errorf("dim=%d: single-range expansion differs from sequential expansion", dim)
		}
	}
	before := runtime.NumGoroutine()
	engine.ForEach(1, func(int) error {
		if n := runtime.NumGoroutine(); n != before {
			t.Errorf("ForEach(1) ran with %d goroutines, %d before: a single range must not spawn", n, before)
		}
		return nil
	})
}
