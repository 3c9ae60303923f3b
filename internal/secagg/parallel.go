package secagg

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/field"
	"repro/internal/prg"
	"repro/internal/ring"
	"repro/internal/shamir"
)

// maskTask is one independent mask expansion, as data: the stream is keyed
// from client id's self-mask seed (self) or from the pair (id, peer), and
// its expansion folds into the destination with sign (±1).
type maskTask struct {
	id, peer uint64
	sign     int8
	self     bool
}

// applyMaskTasks accumulates Σ sign_i·PRG_i straight into dst — the
// client's y, the server's masked sum — reading every stream from keystream
// byte window on (the sub-round's mask window, Config.maskWindow), in two
// fan-outs over one bounded worker pool. First the streams are found or
// built, stream (the caller's one resolver: an X25519 agreement, a cache
// lookup) running exactly once per task on the workers; a failing stream
// stops further claims and its error is returned before any stream is
// expanded, so dst is untouched on error. Then the workers split the
// coordinate range at multiples of ring.MaskBlockLen and each runs the
// many-stream kernel over its range: dst is read and written once however
// many masks there are, and nothing dim-sized is allocated. The range at
// 0 draws from the streams themselves (ring.MaskManyInPlace), so one
// block — a chunked round's 1–2k coordinates — is a single range on the
// calling goroutine that leaves every stream where the next chunk's
// window starts. Mask additions commute in ℤ_{2^b} and the ranges are
// disjoint, so the result does not depend on the worker count.
func applyMaskTasks(dst ring.Vector, tasks []maskTask, window uint64, stream func(maskTask) (*prg.Stream, error)) error {
	var (
		next    atomic.Int64
		failed  atomic.Bool
		errOnce sync.Once
		firstEr error
	)
	fail := func(err error) {
		errOnce.Do(func() { firstEr = err })
		failed.Store(true)
	}
	workers := runtime.GOMAXPROCS(0)

	masks := make([]ring.Mask, len(tasks))
	fanOut(min(workers, len(tasks)), func(int) {
		// Stop claiming work once any worker failed: the round is aborting,
		// no point burning key agreements.
		for !failed.Load() {
			i := int(next.Add(1)) - 1
			if i >= len(tasks) {
				return
			}
			s, err := stream(tasks[i])
			if err != nil {
				fail(err)
				return
			}
			masks[i] = ring.Mask{Stream: s, Sign: int(tasks[i].sign), Off: window}
		}
	})
	if firstEr != nil {
		return firstEr
	}

	block := ring.MaskBlockLen(dst.Bits)
	blocks := (dst.Len() + block - 1) / block
	ranges := min(workers, blocks)
	fanOut(ranges, func(r int) {
		lo := blocks * r / ranges * block
		hi := min(blocks*(r+1)/ranges*block, dst.Len())
		if err := dst.MaskManyInPlace(masks, lo, hi); err != nil {
			fail(err)
		}
	})
	return firstEr
}

// fanOut runs f(0..n-1) concurrently and waits for all of them; n ≤ 1 runs
// on the calling goroutine, so the sequential path pays no synchronization.
func fanOut(n int, f func(int)) {
	if n <= 1 {
		if n == 1 {
			f(0)
		}
		return
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f(i)
		}(i)
	}
	wg.Wait()
}

// abscissaKey packs the first t share abscissas into a comparable string,
// identifying a reconstruction cohort.
func abscissaKey(shares []shamir.Share, t int) string {
	b := make([]byte, 8*t)
	for i, s := range shares[:t] {
		binary.LittleEndian.PutUint64(b[i*8:], s.X.Uint64())
	}
	return string(b)
}

// reconstructGrouped recovers one secret per id, batching ids whose share
// lists present the same abscissa cohort so the Lagrange coefficients are
// computed once per cohort rather than once per id. Under the complete
// graph every live client's self-seed shares come from the same survivor
// set, collapsing |U3| reconstructions into a single coefficient pass;
// under a SecAgg+ graph each neighborhood cohort batches separately.
func reconstructGrouped(ids []uint64, sharesOf func(uint64) []shamir.Share, t int) (map[uint64]field.Element, error) {
	groups := make(map[string][]uint64)
	for _, id := range ids {
		shares := sharesOf(id)
		if len(shares) < t {
			return nil, fmt.Errorf("secagg: client %d: %w (have %d, need %d)",
				id, shamir.ErrTooFewShares, len(shares), t)
		}
		k := abscissaKey(shares, t)
		groups[k] = append(groups[k], id)
	}
	out := make(map[uint64]field.Element, len(ids))
	for _, members := range groups {
		sets := make([][]shamir.Share, len(members))
		for i, id := range members {
			sets[i] = sharesOf(id)
		}
		secrets, err := shamir.ReconstructBatch(sets, t)
		if err != nil {
			return nil, err
		}
		for i, id := range members {
			out[id] = secrets[i]
		}
	}
	return out, nil
}
