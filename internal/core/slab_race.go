//go:build race

package core

// poisonSlab overwrites a released slab (race builds only), so a late
// reader corrupts a sum loudly instead of passing by luck.
func poisonSlab(s []uint64) {
	for i := range s {
		s[i] = 0xDBDBDBDBDBDBDBDB
	}
}
