//go:build !race

package secagg

const raceBuild = false
