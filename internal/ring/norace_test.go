//go:build !race

package ring

const raceBuild = false
