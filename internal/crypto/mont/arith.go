// Copyright 2009 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

package mont

import (
	"math/big"
	"math/bits"
)

// Mul's kernels, in the order a CPU may support them; kernel (set per
// GOARCH) holds the one in use. kernelGo is the Go addMulVVW loop. Under
// kernelADX and above, arith_amd64.s runs addMulVVW's MULX/ADCX/ADOX loop,
// comparing kernel with const_kernelADX, and Mul at 16 and 32 limbs calls
// the fused routines of mul_amd64.s. kernelIFMA differs only in that a
// 32-limb modulus built under it takes digit form (digits.go), which
// amm52x40 (mul_amd64.s) multiplies.
const (
	kernelGo = iota
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
