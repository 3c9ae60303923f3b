//go:build !race

package transport

func poison[T any]([]T) {}
