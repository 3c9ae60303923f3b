package transport

import (
	"math/bits"
	"sync"
)

// Frame buffers are leased, not made. The contract (ARCHITECTURE.md
// "Frame ownership"): a transport never retains a payload after
// Send/SendTo returns, every frame Recv yields is exclusively the
// receiver's, and Release hands a payload back. Forgetting to release is
// a missed reuse, never a bug; releasing a payload something still reads
// is the bug, and a -race build makes it loud (lease_race.go).
//
// The free list is explicit and bounded rather than a sync.Pool, so what
// a round allocates does not depend on when the collector last ran.

const (
	// minLease is the smallest size class; shorter requests round up to it.
	minLease = 64
	// maxLease is the largest size class (a 512 Ki-coordinate vector plus
	// its codec header). A larger declaration is a plain make and is never
	// pooled.
	maxLease = 1<<22 + 1<<19
	// maxRetained bounds the bytes the free list holds across all classes.
	// It is live heap, which the collector's pacing doubles, so it is sized
	// to what a server has in hand between a frame's read and its fold — a
	// dozen 64 Ki-coordinate frames — not to a whole cohort's: on the
	// 32-client round benchmark 2 MiB already catches 95 % of the reuse
	// and 16 MiB costs 13 % more resident memory for the last 1 %.
	maxRetained = 8 << 20
)

// leaseClass returns the smallest size class that holds n bytes: eight
// classes per power of two, so a buffer wastes under an eighth of itself.
func leaseClass(n int) int {
	if n <= minLease {
		return minLease
	}
	step := 1 << (bits.Len(uint(n-1)) - 4)
	return (n + step - 1) &^ (step - 1)
}

var leases struct {
	mu       sync.Mutex
	free     map[int][][]byte // size class → released buffers
	retained int              // bytes held in free
}

// lease returns a buffer of length n whose contents are unspecified: the
// caller overwrites all of it (readFrame) or reslices it to zero length
// and appends (NewWriter).
func lease(n int) []byte {
	if n > maxLease {
		return make([]byte, n)
	}
	class := leaseClass(n)
	leases.mu.Lock()
	if list := leases.free[class]; len(list) > 0 {
		buf := list[len(list)-1]
		leases.free[class] = list[:len(list)-1]
		leases.retained -= class
		leases.mu.Unlock()
		return buf[:n]
	}
	leases.mu.Unlock()
	return make([]byte, n, class)
}

// Release hands a payload back for reuse: one a Recv yielded or a
// Writer's Done returned, whole (not a sub-slice), that nothing reads any
// more. A buffer whose capacity is not a size class (a plain make, a
// Writer that outgrew its lease) or that would take the free list over
// its bound is simply dropped.
func Release(payload []byte) {
	poison(payload)
	class := cap(payload)
	if class < minLease || class > maxLease || leaseClass(class) != class {
		return
	}
	leases.mu.Lock()
	if leases.retained+class <= maxRetained {
		if leases.free == nil {
			leases.free = make(map[int][][]byte)
		}
		leases.free[class] = append(leases.free[class], payload[:0])
		leases.retained += class
	}
	leases.mu.Unlock()
}
