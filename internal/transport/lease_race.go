//go:build race

package transport

// poison overwrites a released payload, so a decoder that kept an alias
// into it fails an exact-sum or golden test instead of passing by luck.
// Race builds only: CI runs every suite under -race.
func poison(p []byte) {
	for i := range p {
		p[i] = 0xDB
	}
}
