package mont

import (
	"encoding/binary"
	"math/big"
)

// Digit form: under kernelIFMA a 32-limb modulus (n² of a 1024-bit Paillier
// key) holds m, R² mod m and every operand as 40 little-endian digits of 52
// bits, one to a word, so that amm52x40's VPMADD52LUQ/VPMADD52HUQ multiply
// them whole. R is 2^2080 = 2^(52·40). SetBytes and FillBytes convert at
// the edges; Mul and ToMont keep their contracts. Only amd64 builds a
// modulus in this form, but the conversions compile and run anywhere: they
// take any word that holds a digit, uint64 as well as a 64-bit big.Word.
const (
	ifmaLimbs  = 32 // the modulus length in limbs that takes digit form
	ifmaDigits = 40 // ceil(32·64 / 52)
	digitBits  = 52
	digitMask  = 1<<digitBits - 1
	pairBytes  = 2 * digitBits / 8 // two digits are 13 bytes
)

// digitWord is a word that holds one digit.
type digitWord interface{ ~uint | ~uint64 }

// newDigitModulus prepares m in digit form when kernel is kernelIFMA and m
// has ifmaLimbs limbs, and returns nil otherwise.
func newDigitModulus(m *big.Int) *Modulus {
	if kernel != kernelIFMA || len(m.Bits()) != ifmaLimbs {
		return nil
	}
	rr := new(big.Int).Lsh(big.NewInt(1), 2*ifmaDigits*digitBits)
	mod := &Modulus{
		m:      make([]big.Word, ifmaDigits),
		m0inv:  big.Word(uint64(minusInverseModW(m.Bits()[0])) & digitMask),
		rr:     make([]big.Word, ifmaDigits),
		digits: true,
	}
	setDigits(mod.m, m.Bytes())
	setDigits(mod.rr, rr.Mod(rr, m).Bytes())
	return mod
}

// setDigits sets z (ifmaDigits words) to the big-endian value of b, which
// has at most ifmaLimbs·8 bytes. Two digits are 13 bytes: pair k is bytes
// 13k to 13k+12 from the right, so digit 2k is the low 52 bits of the 8
// bytes ending 13k bytes from the right, and digit 2k+1 the top 52 bits of
// the 8 bytes ending 13k+5 from the right. buf holds b right-aligned over
// zeros, 20 pairs long.
func setDigits[W digitWord](z []W, b []byte) {
	var buf [pairBytes * ifmaDigits / 2]byte
	copy(buf[len(buf)-len(b):], b)
	z = z[:ifmaDigits]
	for k, o := 0, len(buf); k < ifmaDigits/2; k, o = k+1, o-pairBytes {
		z[2*k] = W(binary.BigEndian.Uint64(buf[o-8:o]) & digitMask)
		z[2*k+1] = W(binary.BigEndian.Uint64(buf[o-pairBytes:o-5]) >> 12)
	}
}

// setBytesDigits is SetBytes in digit form.
func (m *Modulus) setBytesDigits(z []big.Word, b []byte) bool {
	z = z[:ifmaDigits]
	for len(b) > 0 && b[0] == 0 {
		b = b[1:]
	}
	if len(b) > ifmaLimbs*8 {
		return false
	}
	setDigits(z, b)
	return less(z, m.m)
}

// fillBytesDigits is FillBytes in digit form: each pair of digits is
// written as setDigits reads it, the two 8-byte windows agreeing where they
// overlap.
func fillBytesDigits[W digitWord](b []byte, x []W) []byte {
	var buf [pairBytes * ifmaDigits / 2]byte
	x = x[:ifmaDigits]
	for k, o := 0, len(buf); k < ifmaDigits/2; k, o = k+1, o-pairBytes {
		lo, hi := uint64(x[2*k]), uint64(x[2*k+1])
		binary.BigEndian.PutUint64(buf[o-8:o], lo|hi<<digitBits)
		binary.BigEndian.PutUint64(buf[o-pairBytes:o-5], lo>>40|hi<<12)
	}
	if len(b) >= len(buf) {
		clear(b[:len(b)-len(buf)])
		copy(b[len(b)-len(buf):], buf[:])
		return b
	}
	top := len(buf) - len(b)
	for _, c := range buf[:top] {
		if c != 0 {
			panic("mont: value does not fit in the buffer")
		}
	}
	copy(b, buf[top:])
	return b
}
