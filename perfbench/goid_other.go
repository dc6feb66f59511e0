//go:build !amd64 && !arm64

package main

import "runtime"

// curg returns the calling goroutine's ID, parsed from the header of its
// stack trace ("goroutine 17 [running]:"). It costs microseconds, which
// the traced run's overhead then includes.
func curg() uintptr {
	var buf [40]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = b[len("goroutine "):]
	var id uintptr
	for _, c := range b {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uintptr(c-'0')
	}
	return id
}
