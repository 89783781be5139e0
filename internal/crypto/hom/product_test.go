package hom

import (
	"bytes"
	"crypto/rand"
	"math/big"
	"testing"
)

// TestProductDifferential holds Product to big.Int's product mod n² of the
// same blobs, at every length from 0 to 70 (so every correction from the
// ladder up to bit 6), on blobs at and past the edges of the ciphertext
// range; and checks that an encrypted column's product decrypts to its sum.
func TestProductDifferential(t *testing.T) {
	k := testKey(t)
	pm, err := NewProductModulus(k.N2)
	if err != nil {
		t.Fatal(err)
	}
	width := (k.N2.BitLen() + 7) / 8
	n2m1 := new(big.Int).Sub(k.N2, one)
	edges := [][]byte{
		{}, {0}, {1}, n2m1.Bytes(), k.N2.Bytes(),
		new(big.Int).Add(new(big.Int).Lsh(k.N2, 1), big.NewInt(5)).Bytes(),
		bytes.Repeat([]byte{0xff}, 300), bytes.Repeat([]byte{0xff}, width+1),
		append(make([]byte, 40), n2m1.Bytes()...),
	}
	blob := func(i int) []byte {
		if i%3 == 0 {
			return edges[(i/3)%len(edges)]
		}
		c, err := rand.Int(rand.Reader, k.N2)
		if err != nil {
			t.Fatal(err)
		}
		return c.Bytes()
	}
	p := pm.NewProduct()
	for n := 0; n <= 70; n++ {
		p.Reset()
		want := big.NewInt(1)
		for i := 0; i < n; i++ {
			b := blob(n + i)
			p.Mul(b)
			want.Mul(want, new(big.Int).SetBytes(b)).Mod(want, k.N2)
		}
		if got := p.Bytes(); !bytes.Equal(got, want.FillBytes(make([]byte, width))) || p.Len() != uint64(n) {
			t.Fatalf("product of %d blobs: %x (len %d), want %x", n, got, p.Len(), want)
		}
	}

	p.Reset()
	var sum int64
	for _, v := range []int64{5, -17, 1 << 40, 0, 99} {
		ct, err := k.EncryptInt64(v)
		if err != nil {
			t.Fatal(err)
		}
		p.Mul(k.CiphertextBytes(ct))
		sum += v
	}
	if got, err := k.DecryptInt64(k.CiphertextFromBytes(p.Bytes())); err != nil || got != sum {
		t.Fatalf("product decrypts to %d, %v; want %d", got, err, sum)
	}
}

// TestProductMulAllocs: a step allocates nothing.
func TestProductMulAllocs(t *testing.T) {
	k := testKey(t)
	pm, err := NewProductModulus(k.N2)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := k.EncryptInt64(3)
	if err != nil {
		t.Fatal(err)
	}
	b := k.CiphertextBytes(ct)
	p := pm.NewProduct()
	if n := testing.AllocsPerRun(50, func() { p.Mul(b) }); n != 0 {
		t.Fatalf("Product.Mul allocates %v times", n)
	}
}
