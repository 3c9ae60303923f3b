//go:build race

package fuzzcorpus

// raceBuild reports a -race build.
const raceBuild = true
