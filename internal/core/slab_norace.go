//go:build !race

package core

func poisonSlab([]uint64) {}
