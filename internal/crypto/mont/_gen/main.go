// Command _gen writes mul_amd64.s: Modulus.Mul's rows as one assembly
// routine per fixed limb count, every row's two passes unrolled into
// MULX/ADCX/ADOX steps. Run it from the package directory:
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
// it with addMulVVW.
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
	if err := os.WriteFile(out, b.Bytes(), 0o644); err != nil {
		log.Fatal(err)
	}
}
