// Package prf provides the pseudo-random primitives every CryptDB
// encryption scheme is built from: a keyed PRF (HMAC-SHA256) and a
// deterministic coin stream (AES-CTR) used wherever an algorithm needs
// "random" choices that must be reproducible from a key, such as the
// hypergeometric sampling inside OPE (§3.1 of the paper).
package prf

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
)

// Sum computes PRF_key(data...) as HMAC-SHA256 over the concatenation of the
// data chunks, each length-prefixed so that distinct chunkings never collide.
func Sum(key []byte, data ...[]byte) []byte {
	mac := hmac.New(sha256.New, key)
	var lenBuf [8]byte
	for _, d := range data {
		binary.BigEndian.PutUint64(lenBuf[:], uint64(len(d)))
		mac.Write(lenBuf[:])
		mac.Write(d)
	}
	return mac.Sum(nil)
}

// SumUint64 returns the first 8 bytes of Sum as a uint64.
func SumUint64(key []byte, data ...[]byte) uint64 {
	return binary.BigEndian.Uint64(Sum(key, data...))
}

// Stream is a deterministic stream of pseudo-random bits seeded by a key and
// a context string. Two Streams built from the same (key, context) yield the
// same bits, which is what makes OPE encryption deterministic.
type Stream struct {
	ctr cipher.Stream
	// buf[off:] is keystream generated but not yet handed out. Draws
	// are served from it in order, so the bits are those of one
	// XORKeyStream call per draw, without the call and its allocation.
	buf [streamBuf]byte
	off int
}

// streamBuf is four AES blocks: an OPE tree node takes two to six 8-byte
// draws and a leaf one, so a larger buffer would mostly be discarded.
const streamBuf = 64

// NewStream derives an AES-256-CTR coin stream from key and context.
func NewStream(key []byte, context ...[]byte) *Stream {
	seed := Sum(key, context...)
	block, err := aes.NewCipher(seed) // 32-byte seed -> AES-256
	if err != nil {
		panic("prf: aes.NewCipher: " + err.Error()) // impossible: fixed key size
	}
	var iv [aes.BlockSize]byte
	return &Stream{ctr: cipher.NewCTR(block, iv[:]), off: streamBuf}
}

// refill replaces the (consumed) buffer with the next streamBuf bytes of
// keystream.
func (s *Stream) refill() {
	clear(s.buf[:])
	s.ctr.XORKeyStream(s.buf[:], s.buf[:])
	s.off = 0
}

// Bytes fills and returns a fresh slice of n pseudo-random bytes.
func (s *Stream) Bytes(n int) []byte {
	out := make([]byte, n)
	for filled := 0; filled < n; {
		if s.off == streamBuf {
			s.refill()
		}
		c := copy(out[filled:], s.buf[s.off:])
		filled += c
		s.off += c
	}
	return out
}

// Uint64 returns the next 64 pseudo-random bits.
func (s *Stream) Uint64() uint64 {
	if s.off == streamBuf {
		s.refill()
	}
	if streamBuf-s.off < 8 { // an odd-sized Bytes call left the draw straddling a refill
		return binary.BigEndian.Uint64(s.Bytes(8))
	}
	v := binary.BigEndian.Uint64(s.buf[s.off:])
	s.off += 8
	return v
}

// Uint64n returns a pseudo-random value in [0, n) without modulo bias.
// It panics if n == 0.
func (s *Stream) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("prf: Uint64n(0)")
	}
	if n&(n-1) == 0 { // power of two
		return s.Uint64() & (n - 1)
	}
	// Rejection sampling: draw until the value falls below the largest
	// multiple of n representable in 64 bits.
	max := ^uint64(0) - (^uint64(0) % n)
	for {
		v := s.Uint64()
		if v < max {
			return v % n
		}
	}
}

// Float64 returns a pseudo-random float in [0, 1) with 53 bits of precision.
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}
