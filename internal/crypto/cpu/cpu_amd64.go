// Copyright 2017 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

//go:build amd64 && !purego

package cpu

// cpuid executes CPUID with EAX and ECX set (cpu_amd64.s).
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv executes XGETBV with ECX = 0 (cpu_amd64.s).
func xgetbv() (eax, edx uint32)

// The bits of CPUID leaf 1 (ECX) and leaf 7 (EBX) read here, as the
// standard library's internal/cpu names them.
const (
	cpuidSSSE3   = 1 << 9  // leaf 1, ECX
	cpuidSSE41   = 1 << 19 // leaf 1, ECX
	cpuidOSXSAVE = 1 << 27 // leaf 1, ECX
	cpuidAVX     = 1 << 28 // leaf 1, ECX
	cpuidBMI2    = 1 << 8  // leaf 7, EBX
	cpuidADX     = 1 << 19 // leaf 7, EBX
	cpuidSHA     = 1 << 29 // leaf 7, EBX
)

func init() {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 1 {
		return
	}
	_, _, ecx1, _ := cpuid(1, 0)
	X86HasSSSE3 = ecx1&cpuidSSSE3 != 0
	X86HasSSE41 = ecx1&cpuidSSE41 != 0
	// AVX needs the OS to save the XMM and YMM registers (XCR0 bits 1
	// and 2), which XGETBV reads once OSXSAVE says it may.
	if ecx1&cpuidOSXSAVE != 0 {
		xcr0, _ := xgetbv()
		X86HasAVX = ecx1&cpuidAVX != 0 && xcr0&6 == 6
	}
	if maxID < 7 {
		return
	}
	_, ebx7, _, _ := cpuid(7, 0)
	X86HasBMI2 = ebx7&cpuidBMI2 != 0
	X86HasADX = ebx7&cpuidADX != 0
	X86HasSHA = ebx7&cpuidSHA != 0
}
