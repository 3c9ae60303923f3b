//go:build race

package experiments

// raceBuild reports a -race build.
const raceBuild = true
