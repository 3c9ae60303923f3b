//go:build race

package transport

import "testing"

// TestFreeListPoisonsRelease: a -race build overwrites every byte of a
// released slice with 0xDB, whatever its element size, so a released
// frame reads 0xDB and a released slab of words 0xDBDBDBDBDBDBDBDB.
func TestFreeListPoisonsRelease(t *testing.T) {
	drainLeases()
	defer drainLeases()
	frame := lease(1000)
	for i := range frame {
		frame[i] = byte(i)
	}
	Release(frame)
	for i, b := range frame {
		if b != 0xDB {
			t.Fatalf("released frame byte %d is %#x, want 0xdb", i, b)
		}
	}

	words := NewFreeList[uint64](1<<16, 1<<18)
	slab := words.Lease(1000)
	for i := range slab {
		slab[i] = uint64(i)
	}
	words.Release(slab)
	for i, w := range slab {
		if w != 0xDBDBDBDBDBDBDBDB {
			t.Fatalf("released word %d is %#x, want 0xdbdbdbdbdbdbdbdb", i, w)
		}
	}
}
