// Copyright 2017 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

//go:build amd64 && !purego

package mont

import "math/big"

// addMulVVW sets z += x·y and returns the carry word, as addMulVVWGo does,
// with the loop kernel selects (arith_amd64.s).
//
//go:noescape
func addMulVVW(z, x []big.Word, y big.Word) (c big.Word)

// cpuid executes CPUID with EAX and ECX set (cpu_amd64.s).
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// kernel is addMulVVW's loop, chosen once from CPUID. The assembly reads it.
var kernel = detectKernel()

// detectKernel returns kernelADX when the CPU has ADX and BMI2 (MULX), and
// kernelMULQ otherwise.
func detectKernel() int {
	const (
		cpuidBMI2 = 1 << 8  // leaf 7, EBX
		cpuidADX  = 1 << 19 // leaf 7, EBX
	)
	if maxID, _, _, _ := cpuid(0, 0); maxID < 7 {
		return kernelMULQ
	}
	if _, ebx, _, _ := cpuid(7, 0); ebx&(cpuidBMI2|cpuidADX) == cpuidBMI2|cpuidADX {
		return kernelADX
	}
	return kernelMULQ
}
