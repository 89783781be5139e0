package hom

import (
	"fmt"
	"math/big"
	"math/bits"

	"repro/internal/crypto/mont"
)

// ProductModulus is a ciphertext modulus n² prepared for Product: its
// Montgomery constants and a ladder of R^(2^i+1) mod n². It holds only the
// public n², so the DBMS server's UDFs build it; it is read-only, and one
// serves every Product of a key.
type ProductModulus struct {
	n2    *big.Int
	m     *mont.Modulus
	width int // bytes of a ciphertext
	// Entry i is R^(2^i+1) mod n², the Montgomery form of R^(2^i), for
	// i < 64: Bytes corrects a product of k ciphertexts by R^(k-1) with one
	// multiplication per set bit of k-1.
	ladder []big.Word
}

// NewProductModulus prepares the ciphertext modulus n2 (odd, as n² of a
// Paillier key is).
func NewProductModulus(n2 *big.Int) (*ProductModulus, error) {
	m, err := mont.NewModulus(n2)
	if err != nil {
		return nil, fmt.Errorf("hom: %w", err)
	}
	w := m.Len()
	pm := &ProductModulus{n2: n2, m: m, width: (n2.BitLen() + 7) / 8, ladder: make([]big.Word, 64*w)}
	pm.ladder[0] = 1
	m.ToMont(pm.ladder[:w], pm.ladder[:w]) // R
	m.ToMont(pm.ladder[:w], pm.ladder[:w]) // R²
	for i := 1; i < 64; i++ {
		prev := pm.ladder[(i-1)*w : i*w]
		m.Mul(pm.ladder[i*w:(i+1)*w], prev, prev)
	}
	return pm, nil
}

// NewProduct returns an empty product.
func (pm *ProductModulus) NewProduct() *Product {
	w := pm.m.Len()
	buf := make([]big.Word, 2*w)
	return &Product{pm: pm, acc: buf[:w:w], c: buf[w:]}
}

// Product multiplies ciphertext blobs modulo n²: the encryption of the sum
// of their plaintexts, as the server's hom_sum and hom_add compute it. A
// blob is any bytes, read big-endian, so the result is exactly big.Int's
// product mod n² of the blobs' values. Each blob multiplies into the
// accumulator with one Montgomery multiplication and no allocation; that
// leaves a factor R^-(k-1) after k blobs, which Bytes removes. A Product is
// not safe for concurrent use.
type Product struct {
	pm     *ProductModulus
	acc, c []big.Word
	k      uint64
	wide   big.Int // a blob of n² or more, reduced
}

// Reset empties the product.
func (p *Product) Reset() { p.k = 0 }

// Len returns the number of blobs multiplied in since the last Reset.
func (p *Product) Len() uint64 { return p.k }

// Mul multiplies the blob ct into the product.
func (p *Product) Mul(ct []byte) {
	x := p.c
	if p.k == 0 {
		x = p.acc
	}
	if !p.pm.m.SetBytes(x, ct) {
		p.pm.m.SetBytes(x, p.wide.SetBytes(ct).Mod(&p.wide, p.pm.n2).Bytes())
	}
	if p.k > 0 {
		p.pm.m.Mul(p.acc, p.acc, x)
	}
	p.k++
}

// Bytes returns the product modulo n² as a ciphertext-width big-endian
// blob; the product of no blobs is 1.
func (p *Product) Bytes() []byte {
	out := make([]byte, p.pm.width)
	if p.k == 0 {
		out[len(out)-1] = 1
		return out
	}
	w := len(p.acc)
	copy(p.c, p.acc)
	for e := p.k - 1; e != 0; e &= e - 1 {
		i := bits.TrailingZeros64(e)
		p.pm.m.Mul(p.c, p.c, p.pm.ladder[i*w:(i+1)*w])
	}
	return p.pm.m.FillBytes(out, p.c)
}
