//go:build race

package ring

// raceBuild reports a -race build, whose sync.Pool drops what it is handed
// at random, so a pooled-scratch allocation count is not zero there.
const raceBuild = true
