package hom

import (
	"bytes"
	"crypto/rand"
	"math/big"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/crypto/cpu/cputest"
)

// productKeys returns a 512-bit key (n² of 16 limbs) and a 1024-bit one
// (n² of 32 limbs, the server's: digit form on a CPU with AVX-512 IFMA),
// generated once.
var productKeys = sync.OnceValues(func() ([]*Key, error) {
	var keys []*Key
	for _, bits := range []int{512, DefaultBits} {
		k, err := GenerateKey(bits)
		if err != nil {
			return nil, err
		}
		keys = append(keys, k)
	}
	return keys, nil
})

// forEachProductKey runs f on each of productKeys.
func forEachProductKey(t *testing.T, f func(t *testing.T, k *Key)) {
	keys, err := productKeys()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		t.Run(strconv.Itoa(k.N.BitLen()), func(t *testing.T) { f(t, k) })
	}
}

// TestProductDifferential holds Product to big.Int's product mod n² of the
// same blobs, at every length from 0 to 70 (so every correction from the
// ladder up to bit 6), on blobs at and past the edges of the ciphertext
// range; and checks that an encrypted column's product decrypts to its sum.
// It runs at both productKeys.
func TestProductDifferential(t *testing.T) { forEachProductKey(t, testProductDifferential) }

func testProductDifferential(t *testing.T, k *Key) {
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

// TestProductMulAllocs: a step allocates nothing, at both productKeys.
func TestProductMulAllocs(t *testing.T) { forEachProductKey(t, testProductMulAllocs) }

func testProductMulAllocs(t *testing.T, k *Key) {
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

// TestProductKernels runs TestProductDifferential and TestProductMulAllocs
// again in child processes, under the GODEBUG settings that move package
// mont down from each amd64 kernel: cpu.avx512f=off (the ADX routines where
// an IFMA CPU takes digit form) and cpu.adx=off (the Go addMulVVW loop, as
// on a CPU without ADX and BMI2). This process runs them on the CPU's own
// kernel; -tags purego and the other GOARCHes run the Go loop.
func TestProductKernels(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the GODEBUG cpu options choose amd64 kernels")
	}
	for _, godebug := range []string{"cpu.avx512f=off", "cpu.adx=off"} {
		out := cputest.RunUnder(t, godebug, "^TestProduct(Differential|MulAllocs)$")
		for _, name := range []string{"TestProductDifferential/1024", "TestProductMulAllocs/1024"} {
			if !strings.Contains(out, "--- PASS: "+name) {
				t.Errorf("GODEBUG=%s: %s did not pass:\n%s", godebug, name, out)
			}
		}
	}
}
