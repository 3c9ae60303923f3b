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
// FreeList is the tree's one free list: frames here, and the in-process
// round's scratch (ARCHITECTURE.md "Round scratch") — core's encoding
// slab, secagg's client buffers and lightsecagg's client slabs. It is explicit and bounded rather than a sync.Pool, so
// what a round allocates does not depend on when the collector last ran.

const (
	// minLease is the smallest size class; shorter requests round up to it.
	minLease = 64
	// maxLease is the frames' largest size class (a 512 Ki-coordinate
	// vector plus its codec header).
	maxLease = 1<<22 + 1<<19
	// maxRetained bounds the bytes the frame list holds across all classes.
	// It is live heap, which the collector's pacing doubles, so it is sized
	// to what a server has in hand between a frame's read and its fold — a
	// dozen 64 Ki-coordinate frames — not to a whole cohort's: on the
	// 32-client round benchmark 2 MiB already catches 95 % of the reuse
	// and 16 MiB costs 13 % more resident memory for the last 1 %.
	maxRetained = 8 << 20
)

// leaseClass returns the smallest size class that holds n elements: eight
// classes per power of two, so a slice wastes under an eighth of itself.
func leaseClass(n int) int {
	if n <= minLease {
		return minLease
	}
	step := 1 << (bits.Len(uint(n-1)) - 4)
	return (n + step - 1) &^ (step - 1)
}

// FreeList holds released slices of T by size class, last in first out
// within a class, and at most maxRetained elements across classes. T must
// hold no pointers: a -race build overwrites a released slice's bytes.
type FreeList[T any] struct {
	maxItem, maxRetained int

	mu       sync.Mutex
	free     map[int][][]T // size class → released slices
	retained int           // elements held in free
}

// NewFreeList returns an empty free list whose largest class holds
// maxItem elements and which keeps at most maxRetained elements.
func NewFreeList[T any](maxItem, maxRetained int) *FreeList[T] {
	return &FreeList[T]{maxItem: maxItem, maxRetained: maxRetained}
}

// Lease returns a slice of length n whose contents are unspecified. A
// request above the largest class is a plain make, never kept.
func (l *FreeList[T]) Lease(n int) []T {
	if n > l.maxItem {
		return make([]T, n)
	}
	class := leaseClass(n)
	l.mu.Lock()
	if list := l.free[class]; len(list) > 0 {
		s := list[len(list)-1]
		l.free[class] = list[:len(list)-1]
		l.retained -= class
		l.mu.Unlock()
		return s[:n]
	}
	l.mu.Unlock()
	return make([]T, n, class)
}

// Release hands back a slice Lease returned, whole (not a sub-slice), that
// nothing reads any more. A slice whose capacity is not a size class (a
// plain make, one that outgrew its lease) or that would take the list
// over its bound is simply dropped.
func (l *FreeList[T]) Release(s []T) {
	poison(s)
	class := cap(s)
	if class < minLease || class > l.maxItem || leaseClass(class) != class {
		return
	}
	l.mu.Lock()
	if l.retained+class <= l.maxRetained {
		if l.free == nil {
			l.free = make(map[int][][]T)
		}
		l.free[class] = append(l.free[class], s[:0])
		l.retained += class
	}
	l.mu.Unlock()
}

// frames is the free list every frame payload is leased from.
var frames = NewFreeList[byte](maxLease, maxRetained)

// lease returns a frame buffer of length n whose contents are unspecified:
// the caller overwrites all of it (readFrame) or reslices it to zero
// length and appends (NewWriter).
func lease(n int) []byte { return frames.Lease(n) }

// Release hands a payload back for reuse: one a Recv yielded or a
// Writer's Done returned, whole, that nothing reads any more.
func Release(payload []byte) { frames.Release(payload) }
