// Copyright 2017 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

//go:build amd64 && !purego

package mont

import (
	"math/big"

	"repro/internal/crypto/cpu"
)

// addMulVVW sets z += x·y and returns the carry word, as addMulVVWGo does,
// with the loop kernel selects (arith_amd64.s).
//
//go:noescape
func addMulVVW(z, x []big.Word, y big.Word) (c big.Word)

// montMulADX16 and montMulADX32 (mul_amd64.s, generated by _gen) are Mul at
// 16 and 32 limbs in one call: every row of Mul's loop with MULX, ADCX and
// ADOX, then Step 7's masked subtraction into z. t is scratch of 2n limbs
// whose low n are zero; z, x, y and m are n limbs each. They read and write
// through these pointers alone, so the caller checks the lengths.
//
//go:noescape
func montMulADX16(z, t, x, y, m *big.Word, m0inv big.Word)

//go:noescape
func montMulADX32(z, t, x, y, m *big.Word, m0inv big.Word)

// amm52x40 (mul_amd64.s, generated by _gen) is Mul on 40-digit operands
// (digits.go): z = x·y·2^-2080 mod m, canonical, with k0 = -m⁻¹ mod 2^52. t
// is scratch of 40 words; z may alias x or y. Like the ADX routines it
// reads and writes through these pointers alone.
//
//go:noescape
func amm52x40(z, t, x, y, m *big.Word, k0 big.Word)

// mulFused sets z = x·y·R⁻¹ mod m, as Mul does, with one call to amm52x40
// or a montMulADX routine, and reports true; x, y and z are m.Len() words.
// A modulus in digit form always takes amm52x40. Otherwise it does nothing
// and reports false unless kernel is kernelADX or above and m has 16 or 32
// limbs.
func (m *Modulus) mulFused(z, x, y []big.Word) bool {
	if m.digits {
		var t [ifmaDigits]big.Word
		amm52x40(&z[0], &t[0], &x[0], &y[0], &m.m[0], m.m0inv)
		return true
	}
	if kernel < kernelADX {
		return false
	}
	switch len(m.m) {
	case 16:
		var t [2 * 16]big.Word
		montMulADX16(&z[0], &t[0], &x[0], &y[0], &m.m[0], m.m0inv)
	case 32:
		var t [2 * 32]big.Word
		montMulADX32(&z[0], &t[0], &x[0], &y[0], &m.m[0], m.m0inv)
	default:
		return false
	}
	return true
}

// kernel is Mul's kernel, chosen once from CPUID. The assembly reads it.
var kernel = detectKernel()

// detectKernel returns kernelIFMA when the CPU has ADX and BMI2 (MULX) and
// AVX512F and AVX512IFMA with the OS saving the ZMM state, kernelADX when it
// has only the first two, and kernelGo otherwise.
func detectKernel() int {
	switch {
	case !cpu.X86HasADX || !cpu.X86HasBMI2:
		return kernelGo
	case cpu.X86HasAVX512F && cpu.X86HasAVX512IFMA:
		return kernelIFMA
	}
	return kernelADX
}
