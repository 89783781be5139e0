// Package det implements CryptDB's DET encryption layer (§3.1): a
// pseudo-random permutation that deterministically maps equal plaintexts to
// equal ciphertexts under the same column key, enabling equality selects,
// equality joins, GROUP BY, COUNT and DISTINCT at the server while revealing
// only the column's histogram.
//
// Instantiations per the paper:
//   - 64-bit integers: a 64-bit-block PRP (Blowfish in the paper, the
//     feistel package here — see ARCHITECTURE.md, "§3 — onions of
//     encryption").
//   - byte strings: AES with a zero IV in the CMC wide-block variant so that
//     long values do not leak prefix equality.
package det

import (
	"repro/internal/crypto/cmc"
	"repro/internal/crypto/feistel"
	"repro/internal/crypto/prf"
)

// Cipher encrypts values deterministically under one column key.
// It is safe for concurrent use.
type Cipher struct {
	intPRP *feistel.Cipher
	wide   *cmc.Cipher
}

// New derives a Cipher from arbitrary key material.
func New(key []byte) *Cipher {
	return &Cipher{
		intPRP: feistel.New(prf.Sum(key, []byte("det-int"))),
		wide:   cmc.New(prf.Sum(key, []byte("det-bytes"))),
	}
}

// Uint64 deterministically encrypts a 64-bit integer to a 64-bit ciphertext.
func (c *Cipher) Uint64(pt uint64) uint64 { return c.intPRP.Encrypt(pt) }

// DecryptUint64 inverts Uint64.
func (c *Cipher) DecryptUint64(ct uint64) uint64 { return c.intPRP.Decrypt(ct) }

// Bytes deterministically encrypts a byte string.
func (c *Cipher) Bytes(pt []byte) []byte { return c.wide.Encrypt(pt) }

// DecryptBytes inverts Bytes.
func (c *Cipher) DecryptBytes(ct []byte) ([]byte, error) { return c.wide.Decrypt(ct) }
