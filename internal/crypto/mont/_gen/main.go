// Command _gen writes mul_amd64.s: Modulus.Mul's rows as one assembly
// routine per fixed limb count, every row's two passes unrolled into
// MULX/ADCX/ADOX steps, and Mul in digit form, amm52x40, on AVX-512 IFMA.
// Run it from the package directory:
//
//	go generate ./internal/crypto/mont
//
// The step is the one of math/big's ADX addMulVVW loop (arith_amd64.s): MULX
// multiplies a limb by DX, ADCX chains the product's high words on the carry
// flag and ADOX adds the accumulator on the overflow flag, so the two carry
// chains run side by side (Ozturk et al., "New Instructions Supporting Large
// Integer Arithmetic on Intel Architecture Processors", Intel, 2012). The rows
// are the loop of Gueron's word-by-word Montgomery multiplication
// (Algorithm 4 of https://eprint.iacr.org/2011/239.pdf), as Modulus.Mul runs
// it with addMulVVW. amm52x40 is Gueron and Krasnov's almost Montgomery
// multiplication on VPMADD52LUQ/VPMADD52HUQ ("Accelerating Big Integer
// Arithmetic Using Intel IFMA Extensions", ARITH 2016), after OpenSSL's
// rsaz-*-avx512.
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"
	"text/template"
)

// sizes are the limb counts that get a routine: p² and q² (16 limbs) and n²
// (32 limbs) of a 1024-bit Paillier key.
var sizes = []int{16, 32}

const out = "mul_amd64.s"

var header = `// Code generated by go run ./_gen; DO NOT EDIT.

//go:build amd64 && !purego

#include "textflag.h"
`

// routine is the frame every size shares. Registers: R8 x, R9 m, R10 y[i],
// R11 the window T[i:], R12 m0inv, R13 the carry bit above T[n+i], R14 the
// rows left; DX the multiplier; AX, CX, SI and DI the steps' products; BX
// the row's T[i] after the first pass, then that pass's carry word.
var routine = template.Must(template.New("routine").Parse(`
// func montMulADX{{.N}}(z, t, x, y, m *big.Word, m0inv big.Word)
TEXT ·montMulADX{{.N}}(SB), NOSPLIT, $0-48
	MOVQ t+8(FP), R11
	MOVQ x+16(FP), R8
	MOVQ y+24(FP), R10
	MOVQ m+32(FP), R9
	MOVQ m0inv+40(FP), R12
	XORQ R13, R13
	MOVQ ${{.N}}, R14

row:
	// T[i:n+i] += x·y[i]; the carry word goes to BX.
	MOVQ (R10), DX
{{.PassX}}	MOVQ BX, DX
	IMULQ R12, DX
	MOVQ CX, BX

	// T[i:n+i] += m·Y for Y = T[i]·m0inv, which makes T[i] zero.
{{.PassM}}
	// T[n+i], R13 = BX + CX + R13: both passes' carry words and the carry bit.
	XORQ AX, AX
	ADDQ BX, CX
	ADCQ $0, AX
	ADDQ R13, CX
	ADCQ $0, AX
	MOVQ AX, R13
	MOVQ CX, {{.Top}}(R11)

	ADDQ $8, R10
	ADDQ $8, R11
	DECQ R14
	JNZ row

	// R11 is T[n:] now, and R13·R + T[n:] is below 2m. T[:n] = T[n:] - m;
	// R13 less the borrow is -1 exactly when R13 is 0 and T[n:] < m. Its
	// sign is the mask: z keeps T[n:] then, else takes the difference.
{{.Sub}}	SBBQ $0, R13
	SARQ $63, R13
	MOVQ z+0(FP), DI
{{.Select}}	RET
`))

// pass emits the unrolled W += a·DX over the n-limb window at R11, a at
// base, and leaves the carry word in CX. Step j multiplies a[j] into
// (SI, DI) or (AX, CX) by turn, so the previous step's high word is still
// live for ADCX. With first set, step 0 copies the new T[i] to BX for Y;
// without it, step 0 stores nothing: that word is zero by the choice of Y
// and is never read again.
func pass(n int, base string, first bool) string {
	var b bytes.Buffer
	b.WriteString("\tXORQ AX, AX\n") // clears CF and OF
	regs := [2][2]string{{"SI", "DI"}, {"AX", "CX"}}
	for j := 0; j < n; j++ {
		lo, hi := regs[j%2][0], regs[j%2][1]
		prevHi := regs[(j+1)%2][1]
		fmt.Fprintf(&b, "\tMULXQ %s, %s, %s\n", limb(j, base), lo, hi)
		if j > 0 {
			fmt.Fprintf(&b, "\tADCXQ %s, %s\n", prevHi, lo)
		}
		fmt.Fprintf(&b, "\tADOXQ %s, %s\n", limb(j, "R11"), lo)
		switch {
		case j > 0:
			fmt.Fprintf(&b, "\tMOVQ %s, %s\n", lo, limb(j, "R11"))
		case first:
			fmt.Fprintf(&b, "\tMOVQ %s, (R11)\n\tMOVQ %s, BX\n", lo, lo)
		}
	}
	// hi is at most 2^64-2, so adding both flags cannot overflow.
	last := regs[(n-1)%2][1]
	if last != "CX" {
		log.Fatalf("the carry word of %d limbs ends in %s, not CX", n, last)
	}
	fmt.Fprintf(&b, "\tMOVQ $0, AX\n\tADCXQ AX, CX\n\tADOXQ AX, CX\n")
	return b.String()
}

// sub emits T[:n] = T[n:] - m with R11 at T[n:], leaving the borrow in CF.
func sub(n int) string {
	var b bytes.Buffer
	for j := 0; j < n; j++ {
		op := "SBBQ"
		if j == 0 {
			op = "SUBQ"
		}
		fmt.Fprintf(&b, "\tMOVQ %s, AX\n\t%s %s, AX\n\tMOVQ AX, %d(R11)\n", limb(j, "R11"), op, limb(j, "R9"), 8*(j-n))
	}
	return b.String()
}

// sel emits z[j] = T[n+j] where the mask R13 is set, else T[j], for z at DI.
func sel(n int) string {
	var b bytes.Buffer
	for j := 0; j < n; j++ {
		fmt.Fprintf(&b, "\tMOVQ %d(R11), AX\n\tMOVQ %s, CX\n\tXORQ AX, CX\n\tANDQ R13, CX\n\tXORQ AX, CX\n\tMOVQ CX, %s\n",
			8*(j-n), limb(j, "R11"), limb(j, "DI"))
	}
	return b.String()
}

// limb is the address of limb j of the array at base.
func limb(j int, base string) string {
	if j == 0 {
		return "(" + base + ")"
	}
	return fmt.Sprintf("%d(%s)", 8*j, base)
}

// zmm is one of the five ZMM registers that hold an operand of amm52x40,
// eight 52-bit digits to a register: A is the accumulator's, X x's, Next
// the register whose lane 0 moves into A's lane 7 on the shift down a
// digit, and Off their byte offset in memory.
type zmm struct {
	A, X, Next string
	Off        int
}

// ifma is amm52x40, the one shape in digit form: 40 digits hold the 2048
// bits of n².
var ifma = template.Must(template.New("ifma").Parse(`
// func amm52x40(z, t, x, y, m *big.Word, k0 big.Word)
//
// z = x·y·R⁻¹ mod m for R = 2^2080, on operands of 40 digits of 52 bits
// (digits.go): the word-by-word Montgomery loop of Mul with 52-bit digits
// in the 64-bit lanes of five ZMM registers. A lane collects the low halves
// of its digit's products, and after the shift down a digit the high halves
// of the products of the digit below, without carrying: over 40 rows a lane
// gains less than 160·2^52 < 2^60. Digit 0 is kept exactly in a register
// (acc), from MULX products, so that the next row's q waits only for the
// shift and not for the high halves; lane 0 of the accumulator is never
// read otherwise. A scalar pass then carries the lanes, acc as digit 0, into
// digits in z, the difference from m into t, and the result is t when it
// did not borrow (the value was m or more), z otherwise, by a mask.
//
// Registers: Z0-Z4 the accumulator, Z5-Z9 x, Z10 y[i], Z11 the row's
// multiple q of m, Z12 zero, m read from memory (DI); R8 acc, R9 k0 =
// -m⁻¹ mod 2^52, R10 m's digit 0, R11 the digit mask, R13 x's digit 0, BX
// y, CX the rows left. Nothing touches Z16-Z31, which VZEROUPPER does not
// clear, so the upper state is clean again on return.
TEXT ·amm52x40(SB), NOSPLIT, $0-48
	MOVQ x+16(FP), SI
	MOVQ y+24(FP), BX
	MOVQ m+32(FP), DI
	MOVQ k0+40(FP), R9
{{range .Regs}}	VMOVDQU64 {{.Off}}(SI), {{.X}}
{{end}}{{range .Regs}}	VPXORQ {{.A}}, {{.A}}, {{.A}}
{{end}}	VPXORQ Z12, Z12, Z12
	MOVQ 0(SI), R13
	MOVQ 0(DI), R10
	MOVQ $0xfffffffffffff, R11
	XORQ R8, R8
	MOVQ $40, CX

row:
	// acc + x[0]·y[i] + q·m[0] in R12:R8, with q = (acc + x[0]·y[i])·k0
	// mod 2^52, which makes its low 52 bits zero; acc becomes the rest.
	MOVQ (BX), DX
	VPBROADCASTQ DX, Z10
	MULXQ R13, AX, R12
	ADDQ AX, R8
	ADCQ $0, R12
	MOVQ R8, DX
	IMULQ R9, DX
	ANDQ R11, DX
	VPBROADCASTQ DX, Z11
	MULXQ R10, AX, SI
	ADDQ AX, R8
	ADCQ SI, R12
	SHRQ $52, R8
	SHLQ $12, R12
	ORQ R12, R8

	// A += lo(x·y[i]) + lo(q·m), then shift A down a digit: lane 0 is
	// spent, and acc takes the new lane 0.
{{range .Regs}}	VPMADD52LUQ Z10, {{.X}}, {{.A}}
{{end}}{{range .Regs}}	VPMADD52LUQ {{.Off}}(DI), Z11, {{.A}}
{{end}}{{range .Regs}}	VALIGNQ $1, {{.A}}, {{.Next}}, {{.A}}
{{end}}	VMOVQ X0, AX
	ADDQ AX, R8

	// The high halves land a digit up: after the shift, in the same lane
	// (lane 0's are in acc already).
{{range .Regs}}	VPMADD52HUQ Z10, {{.X}}, {{.A}}
{{end}}{{range .Regs}}	VPMADD52HUQ {{.Off}}(DI), Z11, {{.A}}
{{end}}
	ADDQ $8, BX
	DECQ CX
	JNZ row

	// Carry the lanes, with acc as digit 0, into digits in z (R8 the
	// carry), and subtract m with a borrow (R12) into t. The value is
	// below 2m < 2^2080, so nothing carries out of digit 39.
	MOVQ z+0(FP), SI
	MOVQ t+8(FP), BX
{{range .Regs}}	VMOVDQU64 {{.A}}, {{.Off}}(SI)
{{end}}	MOVQ R8, 0(SI)
	XORQ R8, R8
	XORQ R12, R12
	XORQ CX, CX

norm:
	MOVQ (SI)(CX*8), AX
	ADDQ R8, AX
	MOVQ AX, R8
	SHRQ $52, R8
	ANDQ R11, AX
	MOVQ AX, (SI)(CX*8)
	SUBQ (DI)(CX*8), AX
	SUBQ R12, AX
	MOVQ AX, R12
	SHRQ $63, R12
	ANDQ R11, AX
	MOVQ AX, (BX)(CX*8)
	INCQ CX
	CMPQ CX, $40
	JNE norm

	// No borrow: the value was m or more, and z takes t. The mask is all
	// ones then and zero otherwise; z ^= mask & (z ^ t).
	DECQ R12
	VPBROADCASTQ R12, Z12
{{range .Regs}}	VMOVDQU64 {{.Off}}(SI), {{.A}}
{{end}}{{range .Regs}}	VPXORQ {{.Off}}(BX), {{.A}}, {{.X}}
{{end}}{{range .Regs}}	VPANDQ Z12, {{.X}}, {{.X}}
{{end}}{{range .Regs}}	VPXORQ {{.X}}, {{.A}}, {{.A}}
{{end}}{{range .Regs}}	VMOVDQU64 {{.A}}, {{.Off}}(SI)
{{end}}	VZEROUPPER
	RET
`))

// ifmaRegs are amm52x40's registers: the accumulator in Z0-Z4, x in Z5-Z9,
// and Z12, zero, shifting in at the top.
func ifmaRegs() []zmm {
	regs := make([]zmm, 5)
	for i := range regs {
		regs[i] = zmm{A: fmt.Sprintf("Z%d", i), X: fmt.Sprintf("Z%d", 5+i), Next: fmt.Sprintf("Z%d", i+1), Off: 64 * i}
	}
	regs[4].Next = "Z12"
	return regs
}

func main() {
	var b bytes.Buffer
	b.WriteString(header)
	for _, n := range sizes {
		err := routine.Execute(&b, struct {
			N, Top                    int
			PassX, PassM, Sub, Select string
		}{n, 8 * n, pass(n, "R8", true), pass(n, "R9", false), sub(n), sel(n)})
		if err != nil {
			log.Fatal(err)
		}
	}
	if err := ifma.Execute(&b, struct{ Regs []zmm }{ifmaRegs()}); err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(out, b.Bytes(), 0o644); err != nil {
		log.Fatal(err)
	}
}
