//go:build race

package transport

import "unsafe"

// poison overwrites a released slice's bytes with 0xDB, so a reader that
// kept an alias into it fails an exact-sum or golden test instead of
// passing by luck. Race builds only: CI runs every suite under -race.
func poison[T any](s []T) {
	var zero T
	b := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*int(unsafe.Sizeof(zero)))
	for i := range b {
		b[i] = 0xDB
	}
}
