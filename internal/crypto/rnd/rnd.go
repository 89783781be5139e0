// Package rnd implements CryptDB's RND encryption layer (§3.1): an IND-CPA
// probabilistic scheme under which no computation is possible. Byte strings
// use AES-256-CBC with a random IV; 64-bit integers use the 64-bit-block PRP
// from package feistel in single-block CBC mode (the paper uses Blowfish for
// the same reason: to keep integer ciphertexts 64 bits).
//
// The IV is stored alongside the ciphertext in a separate column at the DBMS
// (the C*-IV columns of Figure 3) and is shared by the RND layers of the Eq
// and Ord onions of a data item.
package rnd

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/crypto/feistel"
	"repro/internal/crypto/prf"
)

// IVSize is the byte length of the per-row initialization vector.
const IVSize = aes.BlockSize

// NewIV draws a fresh random IV.
func NewIV() ([]byte, error) {
	iv := make([]byte, IVSize)
	if _, err := rand.Read(iv); err != nil {
		return nil, fmt.Errorf("rnd: generating IV: %w", err)
	}
	return iv, nil
}

// Cipher is the RND layer of one column onion under one key: the AES block
// cipher for byte strings and the 64-bit PRP for integers, with their key
// schedules derived once. It is safe for concurrent use. The package-level
// functions below derive the half they need on every call; anything that
// encrypts or decrypts more than one value under a key should hold a Cipher.
type Cipher struct {
	block cipher.Block
	prp   *feistel.Cipher
}

// New derives the RND cipher for key.
func New(key []byte) *Cipher {
	return &Cipher{block: newBlock(key), prp: newPRP(key)}
}

func newBlock(key []byte) cipher.Block {
	block, err := aes.NewCipher(prf.Sum(key, []byte("rnd-aes")))
	if err != nil {
		panic("rnd: aes.NewCipher: " + err.Error()) // impossible: 32-byte key
	}
	return block
}

func newPRP(key []byte) *feistel.Cipher {
	return feistel.New(prf.Sum(key, []byte("rnd-int")))
}

func checkIV(iv []byte) error {
	if len(iv) != IVSize {
		return fmt.Errorf("rnd: IV must be %d bytes, got %d", IVSize, len(iv))
	}
	return nil
}

// Bytes encrypts arbitrary data with the given IV using AES-256-CBC with
// PKCS#7-style padding. The same (key, iv, pt) triple always yields the
// same ciphertext; probabilistic security comes from drawing a fresh IV
// per row.
func (c *Cipher) Bytes(iv, pt []byte) ([]byte, error) {
	if err := checkIV(iv); err != nil {
		return nil, err
	}
	padded := pad(pt, aes.BlockSize)
	ct := make([]byte, len(padded))
	cipher.NewCBCEncrypter(c.block, iv).CryptBlocks(ct, padded)
	return ct, nil
}

// DecryptBytes inverts Bytes.
func (c *Cipher) DecryptBytes(iv, ct []byte) ([]byte, error) {
	if err := checkIV(iv); err != nil {
		return nil, err
	}
	if len(ct) == 0 || len(ct)%aes.BlockSize != 0 {
		return nil, fmt.Errorf("rnd: ciphertext length %d not a positive multiple of %d", len(ct), aes.BlockSize)
	}
	pt := make([]byte, len(ct))
	cipher.NewCBCDecrypter(c.block, iv).CryptBlocks(pt, ct)
	return unpad(pt, aes.BlockSize)
}

// Uint64 encrypts a 64-bit integer as a single 64-bit block: one round of
// CBC with the 64-bit PRP, ct = E(pt XOR iv64). iv64 is derived from the
// row IV so that integer and string columns can share the stored IV.
func (c *Cipher) Uint64(iv []byte, pt uint64) (uint64, error) {
	if err := checkIV(iv); err != nil {
		return 0, err
	}
	return c.prp.Encrypt(pt ^ binary.BigEndian.Uint64(iv[:8])), nil
}

// DecryptUint64 inverts Uint64.
func (c *Cipher) DecryptUint64(iv []byte, ct uint64) (uint64, error) {
	if err := checkIV(iv); err != nil {
		return 0, err
	}
	return c.prp.Decrypt(ct) ^ binary.BigEndian.Uint64(iv[:8]), nil
}

// Bytes is Cipher.Bytes under a key used once.
func Bytes(key, iv, pt []byte) ([]byte, error) {
	return (&Cipher{block: newBlock(key)}).Bytes(iv, pt)
}

// DecryptBytes is Cipher.DecryptBytes under a key used once.
func DecryptBytes(key, iv, ct []byte) ([]byte, error) {
	return (&Cipher{block: newBlock(key)}).DecryptBytes(iv, ct)
}

// Uint64 is Cipher.Uint64 under a key used once.
func Uint64(key, iv []byte, pt uint64) (uint64, error) {
	return (&Cipher{prp: newPRP(key)}).Uint64(iv, pt)
}

// DecryptUint64 is Cipher.DecryptUint64 under a key used once.
func DecryptUint64(key, iv []byte, ct uint64) (uint64, error) {
	return (&Cipher{prp: newPRP(key)}).DecryptUint64(iv, ct)
}

func pad(pt []byte, size int) []byte {
	n := size - len(pt)%size
	return append(append([]byte{}, pt...), bytes.Repeat([]byte{byte(n)}, n)...)
}

func unpad(pt []byte, size int) ([]byte, error) {
	if len(pt) == 0 {
		return nil, errors.New("rnd: empty plaintext after decryption")
	}
	n := int(pt[len(pt)-1])
	if n == 0 || n > size || n > len(pt) {
		return nil, errors.New("rnd: bad padding")
	}
	for _, b := range pt[len(pt)-n:] {
		if int(b) != n {
			return nil, errors.New("rnd: bad padding")
		}
	}
	return pt[:len(pt)-n], nil
}
