//go:build amd64 || arm64

package main

// curg returns the address of the calling goroutine's runtime descriptor.
// It tells apart the goroutines alive at one time, which is all span
// nesting needs, for the cost of a register read.
func curg() uintptr
