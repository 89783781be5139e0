package prf

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

// parentStream is Stream as it stood before PR 16 buffered the keystream:
// one allocation and one XORKeyStream call per draw. OPE ciphertexts are a
// function of these bits, so Stream must keep producing them.
type parentStream struct{ ctr cipher.Stream }

func newParentStream(key []byte, context ...[]byte) *parentStream {
	block, err := aes.NewCipher(Sum(key, context...))
	if err != nil {
		panic(err)
	}
	var iv [aes.BlockSize]byte
	return &parentStream{ctr: cipher.NewCTR(block, iv[:])}
}

func (s *parentStream) Bytes(n int) []byte {
	out := make([]byte, n)
	s.ctr.XORKeyStream(out, out)
	return out
}

func (s *parentStream) Uint64() uint64 { return binary.BigEndian.Uint64(s.Bytes(8)) }

func (s *parentStream) Uint64n(n uint64) uint64 {
	if n&(n-1) == 0 {
		return s.Uint64() & (n - 1)
	}
	max := ^uint64(0) - (^uint64(0) % n)
	for {
		if v := s.Uint64(); v < max {
			return v % n
		}
	}
}

func (s *parentStream) Float64() float64 { return float64(s.Uint64()>>11) / (1 << 53) }

type coinSource interface {
	Bytes(int) []byte
	Uint64() uint64
	Uint64n(uint64) uint64
	Float64() float64
}

// mixedDraws makes 4096 calls in a fixed pseudo-random order — Bytes with
// lengths from 0 to past the buffer size, so 8-byte draws straddle refills
// at every offset — and returns each call's result, 8 bytes or the slice.
func mixedDraws(s coinSource) [][]byte {
	out := make([][]byte, 0, 4096)
	u64 := func(v uint64) []byte { return binary.BigEndian.AppendUint64(nil, v) }
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 4096; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		switch x % 5 {
		case 0:
			out = append(out, u64(s.Uint64()))
		case 1:
			out = append(out, u64(s.Uint64n(x>>8|1))) // rejection path
		case 2:
			out = append(out, u64(s.Uint64n(1<<(x>>8%64)))) // power of two
		case 3:
			out = append(out, u64(uint64(s.Float64()*(1<<53))))
		case 4:
			out = append(out, s.Bytes(int(x>>8%150)))
		}
	}
	return out
}

// mixedDrawsDigest is sha256 over mixedDraws(NewStream("compat-key",
// "ctx-a", "ctx-b")), recorded by running this file at the parent commit.
const mixedDrawsDigest = "7c023f0fce1930316db430b1e510539dd1e9d44b4112156098643966917244fc"

func TestStreamDifferential(t *testing.T) {
	key, ctx := []byte("compat-key"), [][]byte{[]byte("ctx-a"), []byte("ctx-b")}
	got := mixedDraws(NewStream(key, ctx...))
	want := mixedDraws(newParentStream(key, ctx...))
	h := sha256.New()
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("call %d: got %x, parent's stream gives %x", i, got[i], want[i])
		}
		h.Write(got[i])
	}
	if d := hex.EncodeToString(h.Sum(nil)); d != mixedDrawsDigest {
		t.Fatalf("digest %s, recorded at the parent %s", d, mixedDrawsDigest)
	}
}
