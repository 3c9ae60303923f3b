//go:build !race

package fuzzcorpus

const raceBuild = false
