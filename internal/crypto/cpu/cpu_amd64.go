// Copyright 2017 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

//go:build amd64 && !purego

package cpu

import "os"

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
	cpuidAVX512F = 1 << 16 // leaf 7, EBX
	cpuidADX     = 1 << 19 // leaf 7, EBX
	cpuidIFMA    = 1 << 21 // leaf 7, EBX: AVX512_IFMA
	cpuidSHA     = 1 << 29 // leaf 7, EBX
)

func init() {
	detect()
	processOptions(os.Getenv("GODEBUG"))
}

func detect() {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 1 {
		return
	}
	_, _, ecx1, _ := cpuid(1, 0)
	X86HasSSSE3 = ecx1&cpuidSSSE3 != 0
	X86HasSSE41 = ecx1&cpuidSSE41 != 0
	// AVX needs the OS to save the XMM and YMM registers (XCR0 bits 1
	// and 2), which XGETBV reads once OSXSAVE says it may; AVX-512 needs
	// the opmask and both halves of the ZMM registers too (bits 5-7).
	var osAVX, osAVX512 bool
	if ecx1&cpuidOSXSAVE != 0 {
		xcr0, _ := xgetbv()
		osAVX = xcr0&0x6 == 0x6
		osAVX512 = xcr0&0xE6 == 0xE6
	}
	X86HasAVX = ecx1&cpuidAVX != 0 && osAVX
	if maxID < 7 {
		return
	}
	_, ebx7, _, _ := cpuid(7, 0)
	X86HasBMI2 = ebx7&cpuidBMI2 != 0
	X86HasADX = ebx7&cpuidADX != 0
	X86HasSHA = ebx7&cpuidSHA != 0
	X86HasAVX512F = ebx7&cpuidAVX512F != 0 && osAVX512
	X86HasAVX512IFMA = ebx7&cpuidIFMA != 0 && osAVX512
}
