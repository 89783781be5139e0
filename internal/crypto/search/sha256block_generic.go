//go:build !amd64 || purego

package search

// kernel is always the Go compression function here.
var kernel = kernelGeneric

func detectKernel() int { return kernelGeneric }

// compress runs SHA-256's compression function over each whole 64-byte
// block of p, updating the state dig.
func compress(dig *[8]uint32, p []byte) { blockGeneric(dig, p) }
