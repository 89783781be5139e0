// Package feistel provides a pseudo-random permutation over 64-bit blocks.
//
// The paper uses Blowfish wherever a 64-bit block cipher is needed (DET and
// RND over integer columns, §3.1) because AES's 128-bit block would double
// ciphertext size. Blowfish is not in the Go standard library, so this
// package substitutes a 4-round Luby–Rackoff Feistel network whose round
// function is AES-based. Four Feistel rounds with independent PRF round
// keys are a strong PRP (Luby & Rackoff 1988), giving the same security
// property (PRP over 64-bit blocks) and the same ciphertext size the paper
// relies on. See ARCHITECTURE.md, "§3 — onions of encryption".
package feistel

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"

	"repro/internal/crypto/prf"
)

const rounds = 4

// Cipher is a 64-bit-block PRP. It is safe for concurrent use.
type Cipher struct {
	rk [rounds]cipher.Block
}

// New derives a Cipher from arbitrary key material.
func New(key []byte) *Cipher {
	c := &Cipher{}
	for i := 0; i < rounds; i++ {
		rkBytes := prf.Sum(key, []byte("feistel-round"), []byte{byte(i)})
		blk, err := aes.NewCipher(rkBytes) // 32 bytes -> AES-256
		if err != nil {
			panic("feistel: aes.NewCipher: " + err.Error()) // impossible
		}
		c.rk[i] = blk
	}
	return c
}

// round computes the PRF round function F_i(x): AES_rk[i](x || pad)
// truncated to 32 bits. buf is the caller's zeroed scratch: its first
// aes.BlockSize bytes are the input block, whose pad no round writes, and
// the rest the output block. Scratch passed to cipher.Block escapes, so
// Encrypt and Decrypt allocate one and share it across their rounds.
func (c *Cipher) round(buf *[2 * aes.BlockSize]byte, i int, x uint32) uint32 {
	in, out := buf[:aes.BlockSize], buf[aes.BlockSize:]
	binary.BigEndian.PutUint32(in, x)
	c.rk[i].Encrypt(out, in)
	return binary.BigEndian.Uint32(out)
}

// Encrypt applies the permutation to a 64-bit block.
func (c *Cipher) Encrypt(v uint64) uint64 {
	var buf [2 * aes.BlockSize]byte
	l, r := uint32(v>>32), uint32(v)
	for i := 0; i < rounds; i++ {
		l, r = r, l^c.round(&buf, i, r)
	}
	return uint64(l)<<32 | uint64(r)
}

// Decrypt inverts Encrypt.
func (c *Cipher) Decrypt(v uint64) uint64 {
	var buf [2 * aes.BlockSize]byte
	l, r := uint32(v>>32), uint32(v)
	for i := rounds - 1; i >= 0; i-- {
		l, r = r^c.round(&buf, i, l), l
	}
	return uint64(l)<<32 | uint64(r)
}
