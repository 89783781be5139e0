//go:build amd64 && !purego

package search

import "repro/internal/crypto/cpu"

// blockSHANI is blockGeneric with the SHA extensions (sha256block_amd64.s).
//
//go:noescape
func blockSHANI(dig *[8]uint32, p []byte)

// kernel is compress's kernel, chosen once from CPUID.
var kernel = detectKernel()

// detectKernel returns kernelSHANI under the condition the standard
// library's crypto/sha256 uses SHA-NI on (SHA, SSSE3, SSE4.1 and AVX with
// the OS saving its registers), and kernelGeneric otherwise.
func detectKernel() int {
	if cpu.X86HasSHA && cpu.X86HasSSSE3 && cpu.X86HasSSE41 && cpu.X86HasAVX {
		return kernelSHANI
	}
	return kernelGeneric
}

// compress runs SHA-256's compression function over each whole 64-byte
// block of p, updating the state dig.
func compress(dig *[8]uint32, p []byte) {
	if kernel == kernelSHANI {
		blockSHANI(dig, p)
		return
	}
	blockGeneric(dig, p)
}
