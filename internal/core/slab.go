package core

import (
	"slices"
	"sync"
)

// maxSlabRetained bounds the bytes the slab free list holds: two flat_cold
// slabs (64 clients × 16384 coordinates). A larger slab is never kept.
const maxSlabRetained = 16 << 20

// slabs is the free list runRoundRing leases its encoding slab from
// (ARCHITECTURE.md "Round scratch"): explicit and bounded, not a sync.Pool,
// so what a round allocates does not depend on when the collector last ran.
var slabs struct {
	mu       sync.Mutex
	free     [][]uint64 // oldest first
	retained int        // bytes held in free
}

// leaseSlab returns a free slab of n words, or a new one: contents unspecified.
func leaseSlab(n int) []uint64 {
	slabs.mu.Lock()
	defer slabs.mu.Unlock()
	for i, s := range slabs.free {
		if len(s) == n {
			slabs.free = slices.Delete(slabs.free, i, i+1)
			slabs.retained -= 8 * n
			return s
		}
	}
	return make([]uint64, n)
}

// releaseSlab hands back a slab nothing reads any more, dropping the
// oldest free slabs until it fits, so a process keeps its latest shape.
func releaseSlab(s []uint64) {
	poisonSlab(s)
	if 8*len(s) > maxSlabRetained {
		return
	}
	slabs.mu.Lock()
	defer slabs.mu.Unlock()
	for slabs.retained+8*len(s) > maxSlabRetained {
		slabs.retained -= 8 * len(slabs.free[0])
		slabs.free = slices.Delete(slabs.free, 0, 1)
	}
	slabs.free = append(slabs.free, s)
	slabs.retained += 8 * len(s)
}
