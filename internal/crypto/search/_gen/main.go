// Command _gen writes match_amd64.s: matchAVX512, Matcher.Match over up to
// 16 stored entries at once, one entry to each 32-bit lane of the ZMM
// registers. Run it from the package directory:
//
//	go generate ./internal/crypto/search
//
// The entries of a blob are independent messages, so the lanes hash them
// side by side: the multi-buffer SHA-256 of Gueron and Krasnov
// ("Parallelizing message schedules to accelerate the computations of hash
// functions", J. Cryptographic Engineering, 2012). Each entry costs the two
// compressions of Matcher.Match's per-entry loop: the inner hash's last
// block, fixed but for the salt at W2 and W3, from the ipad midstate, then
// the outer hash's last block, whose W0-W7 are the inner digest, from the
// opad midstate. Every round is written out. A message word the block fixes
// is a constant here: it is folded into the round constant it is added
// with, and a word of the schedule computed only from such words is folded
// too, so the kernel schedules only the words that vary.
//
// Only AVX512F instructions are used. The salt and the MAC come in by
// masked VPGATHERDD, which reads no entry past the lane mask; their bytes
// are swapped with two rotates and a bitwise select (VPTERNLOGD), as
// AVX512F has no byte shuffle on ZMM registers.
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/bits"
	"os"
)

const out = "match_amd64.s"

// k is SHA-256's round constants.
var k = [64]uint32{
	0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
	0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
	0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
	0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
	0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
	0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
	0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
	0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
}

// The layout of a stored entry (search.go): saltSize bytes of salt, then
// the MAC, the outer digest's first four words.
const (
	entrySize = 24
	saltSize  = 8
	macWords  = 4
	lanes     = 16
)

// The last block of each hash, as Matcher.Match pads it: the inner takes
// be64(saltSize) at W0-W1, the salt at W2-W3 and its length, 64+16 bytes,
// at W15; the outer the inner digest at W0-W7 and its length, 64+32 bytes.
// A nil entry is a word that varies by lane; its slot in the frame holds it.
var (
	innerBlock = block([]int{2, 3}, map[int]uint32{1: saltSize, 4: 0x80000000, 15: (64 + 16) * 8})
	outerBlock = block([]int{0, 1, 2, 3, 4, 5, 6, 7}, map[int]uint32{8: 0x80000000, 15: (64 + 32) * 8})
)

// word is one message word of a block: a constant, or a vector in its
// schedule slot.
type word struct {
	vec bool
	c   uint32
}

func block(vec []int, c map[int]uint32) [16]word {
	var w [16]word
	for i, v := range c {
		w[i].c = v
	}
	for _, i := range vec {
		w[i] = word{vec: true}
	}
	return w
}

// Registers. The state a-h is in Z0-Z7 (the names rotate a register a
// round, so after 64 rounds each is back in place); the schedule works in
// Z8-Z11, the word it computes ending in Z8; a round works in Z12-Z15.
// R8 is the 64-byte-aligned frame of 16 schedule slots, W[t] in slot t%16;
// DI the ipad midstate, SI the opad midstate, DX the entries, CX the lane
// mask.
var state = []string{"Z0", "Z1", "Z2", "Z3", "Z4", "Z5", "Z6", "Z7"}

type gen struct {
	b      bytes.Buffer
	consts []uint32
	index  map[uint32]int
}

func (g *gen) op(format string, args ...any) { fmt.Fprintf(&g.b, "\t"+format+"\n", args...) }

// konst is the address of c in the constant table.
func (g *gen) konst(c uint32) string {
	i, ok := g.index[c]
	if !ok {
		i = len(g.consts)
		g.index[c] = i
		g.consts = append(g.consts, c)
	}
	return fmt.Sprintf("consts<>+%d(SB)", 4*i)
}

func slot(t int) string { return fmt.Sprintf("%d(R8)", 64*(t%16)) }

func sigma0(x uint32) uint32 {
	return bits.RotateLeft32(x, -7) ^ bits.RotateLeft32(x, -18) ^ x>>3
}

func sigma1(x uint32) uint32 {
	return bits.RotateLeft32(x, -17) ^ bits.RotateLeft32(x, -19) ^ x>>10
}

// sigma emits σ(src) into dst, t1 and t2 scratch: two rotates and a shift
// XORed together by VPTERNLOGD (0x96 is the three-way XOR).
func (g *gen) sigma(r1, r2, s int, src, dst, t1, t2 string) {
	g.op("VPRORD $%d, %s, %s", r1, src, dst)
	g.op("VPRORD $%d, %s, %s", r2, src, t1)
	g.op("VPSRLD $%d, %s, %s", s, src, t2)
	g.op("VPTERNLOGD $0x96, %s, %s, %s", t2, t1, dst)
}

// schedule emits W[t] = σ1(W[t-2]) + W[t-7] + σ0(W[t-15]) + W[t-16] into
// Z8 and its slot, or folds it to a constant when every term is one.
func (g *gen) schedule(w *[64]word, t int) {
	var c uint32
	var terms []string
	if x := w[t-2]; x.vec {
		g.sigma(17, 19, 10, slot(t-2), "Z9", "Z10", "Z11")
		terms = append(terms, "Z9")
	} else {
		c += sigma1(x.c)
	}
	if x := w[t-15]; x.vec {
		g.sigma(7, 18, 3, slot(t-15), "Z10", "Z11", "Z8")
		terms = append(terms, "Z10")
	} else {
		c += sigma0(x.c)
	}
	for _, x := range []int{t - 7, t - 16} {
		if w[x].vec {
			terms = append(terms, slot(x))
		} else {
			c += w[x].c
		}
	}
	if len(terms) == 0 {
		w[t] = word{c: c}
		return
	}
	acc := terms[0]
	if acc[0] != 'Z' {
		g.op("VMOVDQU32 %s, Z8", acc)
		acc = "Z8"
	}
	for _, term := range terms[1:] {
		g.op("VPADDD %s, %s, Z8", term, acc)
		acc = "Z8"
	}
	if c != 0 {
		g.op("VPADDD.BCST %s, %s, Z8", g.konst(c), acc)
		acc = "Z8"
	}
	if acc != "Z8" {
		g.op("VMOVDQA32 %s, Z8", acc)
	}
	g.op("VMOVDQA32 Z8, %s", slot(t))
	w[t] = word{vec: true}
}

// round emits round t on the state s, W[t] in src when it varies, and
// returns the state's registers for round t+1.
func (g *gen) round(s []string, t int, w word, src string) []string {
	a, b, c, d, e, f, gg, h := s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]
	// h += K[t] + W[t]
	if w.vec {
		g.op("VPADDD %s, %s, %s", src, h, h)
		g.op("VPADDD.BCST %s, %s, %s", g.konst(k[t]), h, h)
	} else {
		g.op("VPADDD.BCST %s, %s, %s", g.konst(k[t]+w.c), h, h)
	}
	// h += Σ1(e) + Ch(e, f, g); 0xCA selects f where e is set, g elsewhere.
	g.op("VPRORD $6, %s, Z12", e)
	g.op("VPRORD $11, %s, Z13", e)
	g.op("VPRORD $25, %s, Z14", e)
	g.op("VPTERNLOGD $0x96, Z14, Z13, Z12")
	g.op("VMOVDQA32 %s, Z15", e)
	g.op("VPTERNLOGD $0xCA, %s, %s, Z15", gg, f)
	g.op("VPADDD Z12, Z15, Z12")
	g.op("VPADDD Z12, %s, %s", h, h)
	// d += T1: the next round's e.
	g.op("VPADDD %s, %s, %s", h, d, d)
	// h += Σ0(a) + Maj(a, b, c), 0xE8: the next round's a.
	g.op("VPRORD $2, %s, Z12", a)
	g.op("VPRORD $13, %s, Z13", a)
	g.op("VPRORD $22, %s, Z14", a)
	g.op("VPTERNLOGD $0x96, Z14, Z13, Z12")
	g.op("VMOVDQA32 %s, Z15", a)
	g.op("VPTERNLOGD $0xE8, %s, %s, Z15", c, b)
	g.op("VPADDD Z12, Z15, Z12")
	g.op("VPADDD Z12, %s, %s", h, h)
	return []string{h, a, b, c, d, e, f, gg}
}

// compress emits the 64 rounds over a block whose varying words are in
// their slots, from the state in Z0-Z7.
func (g *gen) compress(blk [16]word) {
	var w [64]word
	copy(w[:], blk[:])
	s := state
	for t := 0; t < 64; t++ {
		src := slot(t)
		if t >= 16 {
			g.schedule(&w, t)
			src = "Z8"
		}
		s = g.round(s, t, w[t], src)
	}
	if s[0] != state[0] {
		log.Fatalf("the state ends in %v", s)
	}
}

// bswap emits the byte swap of each 32-bit lane of src into dst: rotated
// right by 8, bytes 3 and 1 are in place, rotated left by 8, bytes 2 and 0;
// 0xE4 takes the first where the mask 0xFF00FF00 is set.
func (g *gen) bswap(src, dst, tmp string) {
	g.op("VPRORD $8, %s, %s", src, dst)
	g.op("VPROLD $8, %s, %s", src, tmp)
	g.op("VPTERNLOGD.BCST $0xE4, %s, %s, %s", g.konst(0xff00ff00), tmp, dst)
}

// gather emits a masked gather of the 32-bit word at off in each lane's
// entry into dst. The gather clears K1 as it completes, so each reloads it.
func (g *gen) gather(off int, dst string) {
	g.op("KMOVW CX, K1")
	g.op("VPXORD %s, %s, %s", dst, dst, dst)
	g.op("VPGATHERDD %d(DX)(Z15*1), K1, %s", off, dst)
}

const header = `// Code generated by go run ./_gen; DO NOT EDIT.

//go:build amd64 && !purego

#include "textflag.h"

// func matchAVX512(inner, outer *[8]uint32, entries *byte, lanes uint16) bool
//
// Reports whether any entry of entries[i*24:(i+1)*24] for a lane i set in
// lanes is an HMAC match under the ipad and opad midstates inner and outer
// (Matcher.Match). Lane i hashes entry i; inactive lanes read nothing and
// never match. Nothing touches Z16-Z31, which VZEROUPPER does not clear.
TEXT ·matchAVX512(SB), 0, $1088-33
	MOVQ inner+0(FP), DI
	MOVQ outer+8(FP), SI
	MOVQ entries+16(FP), DX
	MOVWLZX lanes+24(FP), CX
	LEAQ 63(SP), R8
	ANDQ $-64, R8

	// The salt, byte-swapped into W2 and W3.
	VMOVDQU32 offsets<>(SB), Z15
`

func main() {
	g := &gen{index: map[uint32]int{}}
	g.b.WriteString(header)
	g.gather(0, "Z8")
	g.gather(4, "Z9")
	g.bswap("Z8", "Z10", "Z12")
	g.bswap("Z9", "Z11", "Z13")
	g.op("VMOVDQA32 Z10, %s", slot(2))
	g.op("VMOVDQA32 Z11, %s", slot(3))

	g.b.WriteString("\n\t// The inner hash's last block, from the ipad midstate.\n")
	for i, r := range state {
		g.op("VPBROADCASTD %d(DI), %s", 4*i, r)
	}
	g.compress(innerBlock)
	for i, r := range state {
		g.op("VPADDD.BCST %d(DI), %s, %s", 4*i, r, r)
		g.op("VMOVDQA32 %s, %s", r, slot(i))
	}

	g.b.WriteString("\n\t// The outer hash's last block, the inner digest as W0-W7, from the\n\t// opad midstate.\n")
	for i, r := range state {
		g.op("VPBROADCASTD %d(SI), %s", 4*i, r)
	}
	g.compress(outerBlock)
	for i, r := range state[:macWords] {
		g.op("VPADDD.BCST %d(SI), %s, %s", 4*i, r, r)
	}

	g.b.WriteString("\n\t// Compare the digest's first four words with the MAC's, byte-swapped;\n\t// 0xF6 ORs in the XOR of the other two operands.\n")
	g.op("VMOVDQU32 offsets<>(SB), Z15")
	for i := 0; i < macWords; i++ {
		g.gather(saltSize+4*i, state[4+i])
	}
	for i := 0; i < macWords; i++ {
		mac := fmt.Sprintf("Z%d", 8+i)
		g.bswap(state[4+i], mac, "Z13")
		if i == 0 {
			g.op("VPXORD %s, %s, Z12", mac, state[i])
		} else {
			g.op("VPTERNLOGD $0xF6, %s, %s, Z12", mac, state[i])
		}
	}
	g.op("KMOVW CX, K1")
	g.op("VPTESTNMD Z12, Z12, K1, K2")
	g.op("KORTESTW K2, K2")
	g.op("SETNE ret+32(FP)")
	g.op("VZEROUPPER")
	g.op("RET")

	g.b.WriteString("\n// offsets is each lane's entry offset.\n")
	for i := 0; i < lanes; i++ {
		fmt.Fprintf(&g.b, "DATA offsets<>+%d(SB)/4, $%d\n", 4*i, entrySize*i)
	}
	fmt.Fprintf(&g.b, "GLOBL offsets<>(SB), RODATA|NOPTR, $%d\n", 4*lanes)
	g.b.WriteString("\n// consts holds the round constants, each with the message word it is\n// added with when the block fixes that word, and the byte swap's mask.\n")
	for i, c := range g.consts {
		fmt.Fprintf(&g.b, "DATA consts<>+%d(SB)/4, $0x%08x\n", 4*i, c)
	}
	fmt.Fprintf(&g.b, "GLOBL consts<>(SB), RODATA|NOPTR, $%d\n", 4*len(g.consts))
	if err := os.WriteFile(out, g.b.Bytes(), 0o644); err != nil {
		log.Fatal(err)
	}
}
