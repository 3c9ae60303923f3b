//go:build !race

package transport

func poison([]byte) {}
