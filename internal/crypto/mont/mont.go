// Copyright 2021 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

// Package mont is a Montgomery multiplication kernel over any odd modulus m,
// on little-endian limb slices ([]big.Word) of m's length n. With R =
// 2^(n·W) for W-bit limbs, Mul computes x·y·R⁻¹ mod m in one word-by-word
// pass: no division, no allocation. Paillier's server-side product
// (hom.Product) and the fixed-base comb behind Paillier encryption
// randomness run on it.
//
// The arithmetic is adapted from the Go 1.24.0 standard library, under the
// BSD license in LICENSE:
//   - Modulus.Mul is the default case of montgomeryMul, and
//     minusInverseModW is the function of that name, in
//     src/crypto/internal/fips140/bigmod/nat.go;
//   - addMulVVW's amd64 assembly (arith_amd64.s) is addMulVVW from
//     src/math/big/arith_amd64.s, its MULX/ADCX/ADOX loop, with a branch
//     to the Go loop; that loop (arith.go) is addMulVVW_g and mulAddWWW_g
//     from src/math/big/arith.go;
//   - the CPUID stub and the feature bits the kernels choose by are
//     internal/crypto/cpu's, which adapts them from
//     src/internal/cpu/cpu_x86.s and cpu_x86.go.
//
// On amd64 the assembly takes the ADX loop when CPUID reports ADX and BMI2;
// other CPUs, GOARCHes and -tags purego use the Go loop. With ADX, a 16- or
// 32-limb modulus (p², q² and n² of a 1024-bit Paillier key) skips the
// loop: Mul is one call to a routine that runs every row, each row's two
// addMulVVW passes unrolled into math/big's MULX/ADCX/ADOX step with the
// carries in registers, and the final masked subtraction.
//
// When the CPU also has AVX512F and AVX512IFMA with the OS saving the ZMM
// state, a 32-limb modulus takes digit form instead (digits.go): its
// operands are 40 digits of 52 bits, R is 2^2080, and Mul is one call to
// amm52x40, Gueron and Krasnov's almost Montgomery multiplication on
// VPMADD52LUQ/VPMADD52HUQ. mul_amd64.s holds amm52x40 and the ADX
// routines; _gen writes it. The form is fixed when the modulus is built;
// Len, SetBytes, FillBytes and ToMont follow it, so that a caller that keeps
// to them never sees which form it has.
package mont

//go:generate go run ./_gen

import (
	"encoding/binary"
	"errors"
	"math/big"
	"math/bits"
)

// Modulus is an odd modulus m > 1 with its Montgomery constants. It is
// read-only after NewModulus, so any number of goroutines may share it.
type Modulus struct {
	m     []big.Word // m's limbs, or digits
	m0inv big.Word   // -m⁻¹ mod 2^W, or mod 2^52 in digit form
	rr    []big.Word // R² mod m
	// digits reports digit form: every operand is 52-bit digits, and Mul
	// is amm52x40.
	digits bool
}

// NewModulus prepares m, which must be odd and greater than one.
func NewModulus(m *big.Int) (*Modulus, error) {
	if m.Sign() <= 0 || m.Bit(0) == 0 || m.BitLen() < 2 {
		return nil, errors.New("mont: modulus must be odd and greater than one")
	}
	if d := newDigitModulus(m); d != nil {
		return d, nil
	}
	n := len(m.Bits())
	rr := new(big.Int).Lsh(big.NewInt(1), uint(2*n*bits.UintSize))
	return &Modulus{
		m:     limbs(m, n),
		m0inv: minusInverseModW(m.Bits()[0]),
		rr:    limbs(rr.Mod(rr, m), n),
	}, nil
}

// limbs returns x as n limbs; x must fit.
func limbs(x *big.Int, n int) []big.Word {
	z := make([]big.Word, n)
	copy(z, x.Bits())
	return z
}

// Len returns the length of every operand in words: m's limbs, or 40
// digits in digit form.
func (m *Modulus) Len() int { return len(m.m) }

// minusInverseModW computes -x⁻¹ mod 2^W with x odd.
func minusInverseModW(x big.Word) big.Word {
	// Every iteration of this loop doubles the least-significant bits of
	// correct inverse in y. The first three bits are already correct (1⁻¹ = 1,
	// 3⁻¹ = 3, 5⁻¹ = 5, and 7⁻¹ = 7 mod 8), so doubling five times is enough
	// for 64 bits (and wastes only one iteration for 32 bits).
	y := x
	for i := 0; i < 5; i++ {
		y = y * (2 - x*y)
	}
	return -y
}

// stackLimbs bounds the moduli whose Mul scratch lives on the stack: 4096
// bits of 64-bit limbs, the n² of a 2048-bit Paillier key. Mul allocates its
// scratch only for a longer modulus.
const stackLimbs = 64

// Mul sets z = x·y·R⁻¹ mod m. x and y must be below m, and z, x and y all
// m.Len() words long; z may alias x or y. Multiplying a Montgomery form (a·R)
// by a plain value b gives the plain a·b; two Montgomery forms give the
// Montgomery form of the product.
func (m *Modulus) Mul(z, x, y []big.Word) {
	n := len(m.m)
	// The fused kernels read through raw pointers: a short operand panics
	// here, even with spare capacity, before any of them reads past it.
	_, _, _ = z[n-1], x[n-1], y[n-1]
	x, y, z = x[:n], y[:n], z[:n]
	if m.mulFused(z, x, y) {
		return
	}
	var buf [2 * stackLimbs]big.Word
	T := buf[:]
	if n > stackLimbs {
		T = make([]big.Word, 2*n)
	}
	T = T[:2*n]

	// This loop implements Word-by-Word Montgomery Multiplication, as
	// described in Algorithm 4 (Fig. 3) of "Efficient Software
	// Implementations of Modular Exponentiation" by Shay Gueron
	// [https://eprint.iacr.org/2011/239.pdf].
	//
	// Step 1 (T = x × y) is folded into the loop: digit i of y adds x·y[i]
	// at T[i:], and T[i] is not modified after that digit. Step 6 is a
	// window shift: the algorithm's T is our T[i:], so T1 in Step 2 is T[i]
	// and k0 in Step 3 is m0inv. Steps 4 and 5 add Y × m at T[i:]; the two
	// carries go into T[n+i] and its carry bit into the next iteration.
	var c uint
	for i := 0; i < n; i++ {
		_ = T[n+i] // bounds check elimination hint
		c1 := addMulVVW(T[i:n+i], x, y[i])
		Y := T[i] * m.m0inv
		c2 := addMulVVW(T[i:n+i], m.m, Y)
		var s uint
		s, c = bits.Add(uint(c1), uint(c2), c)
		T[n+i] = big.Word(s)
	}

	// Step 7: the result c·R + T[n:] is below 2m; subtract m when it
	// overflowed or T[n:] >= m. The difference goes to the spent low half
	// of T, and the choice is a mask, not a branch.
	var b uint
	for i := 0; i < n; i++ {
		var d uint
		d, b = bits.Sub(uint(T[n+i]), uint(m.m[i]), b)
		T[i] = big.Word(d)
	}
	mask := -big.Word(c | (b ^ 1))
	for i := range z {
		z[i] = T[n+i] ^ (mask & (T[n+i] ^ T[i]))
	}
}

// ToMont sets z = x·R mod m, the Montgomery form of x < m. Mul by a plain
// value converts back.
func (m *Modulus) ToMont(z, x []big.Word) { m.Mul(z, x, m.rr) }

// SetBytes sets z (m.Len() words) to the big-endian value of b and reports
// whether it is below m. Leading zero bytes are ignored. On false z holds
// no particular value.
func (m *Modulus) SetBytes(z []big.Word, b []byte) bool {
	if m.digits {
		return m.setBytesDigits(z, b)
	}
	z = z[:len(m.m)]
	for len(b) > 0 && b[0] == 0 {
		b = b[1:]
	}
	if len(b) > len(z)*wordBytes {
		return false
	}
	clear(z)
	i, j := 0, len(b)
	for ; j >= wordBytes; i, j = i+1, j-wordBytes {
		z[i] = getWord(b[j-wordBytes : j])
	}
	for _, c := range b[:j] {
		z[i] = z[i]<<8 | big.Word(c)
	}
	return less(z, m.m)
}

// less reports x < y for little-endian words of one length and radix.
func less(x, y []big.Word) bool {
	for i := len(x) - 1; i >= 0; i-- {
		if x[i] != y[i] {
			return x[i] < y[i]
		}
	}
	return false
}

// FillBytes sets b to x, an operand below m, big-endian and zero-padded on
// the left, and returns b. It panics if x does not fit in len(b) bytes.
func (m *Modulus) FillBytes(b []byte, x []big.Word) []byte {
	if m.digits {
		return fillBytesDigits(b, x)
	}
	return fillLimbs(b, x[:len(m.m)])
}

// fillLimbs is FillBytes for little-endian limbs.
func fillLimbs(b []byte, x []big.Word) []byte {
	clear(b)
	j := len(b)
	for _, v := range x {
		if j >= wordBytes {
			putWord(b[j-wordBytes:j], v)
			j -= wordBytes
			continue
		}
		for ; j > 0; j-- {
			b[j-1] = byte(v)
			v >>= 8
		}
		if v != 0 {
			panic("mont: value does not fit in the buffer")
		}
	}
	return b
}

const wordBytes = bits.UintSize / 8

// getWord and putWord read and write one big-endian limb.
func getWord(b []byte) big.Word {
	if wordBytes == 8 {
		return big.Word(binary.BigEndian.Uint64(b))
	}
	return big.Word(binary.BigEndian.Uint32(b))
}

func putWord(b []byte, v big.Word) {
	if wordBytes == 8 {
		binary.BigEndian.PutUint64(b, uint64(v))
		return
	}
	binary.BigEndian.PutUint32(b, uint32(v))
}
