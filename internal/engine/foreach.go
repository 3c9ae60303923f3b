package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEach runs f(0), …, f(n−1) on at most min(GOMAXPROCS, n) workers —
// the caller is one of them — that claim indices from one counter, so a
// slow index holds up only its own worker; with one worker it runs on
// the caller and starts no goroutine. It is the round path's one fan-out:
// a round's clients, mask streams and coordinate ranges all run on it.
// Once an f has failed no index is claimed any more, and ForEach returns
// the error of the lowest index that failed. Claims ascend, so every index
// below a failed one was claimed and ran: the error returned does not
// depend on the worker count.
func ForEach(n int, f func(i int) error) error {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		for i := range n {
			if err := f(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next   atomic.Int64
		failed atomic.Bool
		mu     sync.Mutex
		lowest = n
		err    error
		wg     sync.WaitGroup
	)
	work := func() {
		for !failed.Load() {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if e := f(i); e != nil {
				mu.Lock()
				if i < lowest {
					lowest, err = i, e
				}
				mu.Unlock()
				failed.Store(true)
			}
		}
	}
	wg.Add(workers - 1)
	for range workers - 1 {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return err
}
