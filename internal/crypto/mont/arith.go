// Copyright 2009 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

package mont

import (
	"math/big"
	"math/bits"
)

// Mul's kernels, in the order a CPU may support them; kernel (set per
// GOARCH) holds the one in use. The first three are addMulVVW's loops:
// arith_amd64.s compares kernel with these values, and kernelADX also sends
// Mul at 16 and 32 limbs to the fused routines of mul_amd64.s. kernelIFMA
// runs the ADX loop and routines, except that a 32-limb modulus built under
// it holds its operands as 52-bit digits and multiplies them with
// amm52x40 (ifma_amd64.s).
const (
	kernelGo = iota
	kernelMULQ
	kernelADX
	kernelIFMA
)

// addMulVVWGo sets z += x·y and returns the carry word: one row of a
// pen-and-paper column multiplication. z and x have the same length.
func addMulVVWGo(z, x []big.Word, y big.Word) (c big.Word) {
	for i := 0; i < len(z) && i < len(x); i++ {
		hi, lo := bits.Mul(uint(x[i]), uint(y))
		var cc uint
		lo, cc = bits.Add(lo, uint(z[i]), 0)
		hi += cc
		lo, cc = bits.Add(lo, uint(c), 0)
		c, z[i] = big.Word(hi+cc), big.Word(lo)
	}
	return
}
