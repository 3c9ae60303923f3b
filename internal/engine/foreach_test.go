package engine

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestForEach: every index runs exactly once on at most GOMAXPROCS
// workers, one worker runs on the caller, a failure stops the claims,
// and the lowest failing index's error is returned.
func TestForEach(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))

	t.Run("each index once, bounded", func(t *testing.T) {
		const n = 500
		var (
			ran              [n]atomic.Int32
			inFlight, widest atomic.Int32
		)
		err := ForEach(n, func(i int) error {
			now := inFlight.Add(1)
			for w := widest.Load(); now > w && !widest.CompareAndSwap(w, now); w = widest.Load() {
			}
			ran[i].Add(1)
			time.Sleep(50 * time.Microsecond)
			inFlight.Add(-1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range ran {
			if c := ran[i].Load(); c != 1 {
				t.Fatalf("index %d ran %d times", i, c)
			}
		}
		if w := widest.Load(); w > 4 {
			t.Errorf("%d indices in flight at once, GOMAXPROCS is 4", w)
		}
	})

	t.Run("one worker runs on the caller", func(t *testing.T) {
		for _, tc := range []struct{ procs, n int }{{4, 1}, {1, 8}} {
			runtime.GOMAXPROCS(tc.procs)
			before := runtime.NumGoroutine()
			ForEach(tc.n, func(int) error {
				if g := runtime.NumGoroutine(); g != before {
					t.Errorf("procs=%d n=%d: %d goroutines inside, %d before", tc.procs, tc.n, g, before)
				}
				return nil
			})
		}
		runtime.GOMAXPROCS(4)
	})

	t.Run("no claims after a failure", func(t *testing.T) {
		boom := errors.New("boom")
		// Sequential: exactly the indices up to the failure run.
		runtime.GOMAXPROCS(1)
		var ran atomic.Int32
		if err := ForEach(100, func(i int) error {
			ran.Add(1)
			if i == 2 {
				return boom
			}
			return nil
		}); err != boom || ran.Load() != 3 {
			t.Errorf("one worker: err %v after %d indices, want boom after 3", err, ran.Load())
		}
		// Parallel: index 0 fails at once while every other index takes
		// 2ms, so only the few claimed before the failure was seen run.
		runtime.GOMAXPROCS(4)
		ran.Store(0)
		if err := ForEach(200, func(i int) error {
			ran.Add(1)
			if i == 0 {
				return boom
			}
			time.Sleep(2 * time.Millisecond)
			return nil
		}); err != boom {
			t.Fatalf("err = %v", err)
		}
		if n := ran.Load(); n > 100 {
			t.Errorf("%d of 200 indices ran after index 0 failed", n)
		}
	})

	t.Run("lowest failing index", func(t *testing.T) {
		errSlow, errFast := errors.New("index 5"), errors.New("index 9")
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			err := ForEach(64, func(i int) error {
				switch i {
				case 5: // fails last: index 9 is claimed and fails meanwhile
					time.Sleep(20 * time.Millisecond)
					return errSlow
				case 9:
					return errFast
				}
				return nil
			})
			if err != errSlow {
				t.Errorf("procs=%d: err = %v, want index 5's", procs, err)
			}
		}
	})
}
