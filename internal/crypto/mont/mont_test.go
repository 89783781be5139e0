package mont

import (
	"bytes"
	"crypto/rand"
	"fmt"
	"math/big"
	"math/bits"
	"testing"
)

var kernelNames = map[int]string{kernelGo: "go", kernelMULQ: "mulq", kernelADX: "adx"}

// forEachKernel runs f with each addMulVVW implementation this CPU and build
// support forced in turn.
func forEachKernel(t testing.TB, f func(name string)) {
	defer func(k int) { kernel = k }(kernel)
	for k := kernelGo; k <= detectKernel(); k++ {
		kernel = k
		f(kernelNames[k])
	}
}

func randBelow(t testing.TB, max *big.Int) *big.Int {
	x, err := rand.Int(rand.Reader, max)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// oddModulus returns a random odd modulus of exactly b bits.
func oddModulus(t testing.TB, b int) *big.Int {
	m := randBelow(t, new(big.Int).Lsh(big.NewInt(1), uint(b)))
	return m.SetBit(m.SetBit(m, b-1, 1), 0, 1)
}

func toLimbs(x *big.Int, n int) []big.Word {
	z := make([]big.Word, n)
	copy(z, x.Bits())
	return z
}

func fromLimbs(z []big.Word) *big.Int {
	return new(big.Int).SetBits(append([]big.Word(nil), z...))
}

// TestMontMulDifferential holds Mul, ToMont and the byte I/O to big.Int
// arithmetic with every addMulVVW kernel forced in turn: at 16 and 32 limbs
// (p² and n² of a 1024-bit Paillier key), and at 64-, 256- and 520-bit
// moduli, the sizes of the test keys and a limb count that leaves a
// remainder after each unrolled loop. Operands are random plus 0, 1, 2,
// m-2, m-1 and R mod m, and z aliases x, y and both.
func TestMontMulDifferential(t *testing.T) {
	forEachKernel(t, func(kname string) {
		for _, b := range []int{64, 256, 520, 1024, 2048} {
			for trial := 0; trial < 4; trial++ {
				m := oddModulus(t, b)
				if trial == 3 {
					m.Sub(m, new(big.Int).Lsh(big.NewInt(1), uint(b-1))).SetBit(m, 0, 1) // a short top limb
				}
				if err := checkModulus(t, m); err != nil {
					t.Fatalf("%s kernel, %d-bit modulus %x: %v", kname, m.BitLen(), m, err)
				}
			}
		}
		for n := 0; n <= 20; n++ {
			z, x := make([]big.Word, n), make([]big.Word, n)
			for i := range z {
				z[i], x[i] = randWord(t), randWord(t)
			}
			for _, y := range []big.Word{0, 1, ^big.Word(0), randWord(t)} {
				want, got := append([]big.Word(nil), z...), append([]big.Word(nil), z...)
				wc, gc := addMulVVWGo(want, x, y), addMulVVW(got, x, y)
				if wc != gc || fmt.Sprint(want) != fmt.Sprint(got) {
					t.Fatalf("%s kernel: addMulVVW of %d limbs by %x: %x carry %x, want %x carry %x", kname, n, y, got, gc, want, wc)
				}
			}
		}
	})
}

func randWord(t testing.TB) big.Word {
	return big.Word(randBelow(t, new(big.Int).Lsh(big.NewInt(1), bits.UintSize)).Uint64())
}

func checkModulus(t testing.TB, m *big.Int) error {
	mod, err := NewModulus(m)
	if err != nil {
		return err
	}
	n := mod.Len()
	if n != len(m.Bits()) {
		return fmt.Errorf("Len %d, want %d", n, len(m.Bits()))
	}
	r := new(big.Int).Lsh(big.NewInt(1), uint(n*bits.UintSize))
	rInv := new(big.Int).ModInverse(r, m)
	mm1 := new(big.Int).Sub(m, big.NewInt(1))
	ops := []*big.Int{new(big.Int), big.NewInt(1), big.NewInt(2), new(big.Int).Sub(m, big.NewInt(2)), mm1,
		new(big.Int).Mod(r, m)}
	for i := 0; i < 10; i++ {
		ops = append(ops, randBelow(t, m))
	}
	for _, x := range ops {
		for _, y := range ops {
			want := new(big.Int).Mul(x, y)
			want.Mul(want, rInv).Mod(want, m)
			xl, yl := toLimbs(x, n), toLimbs(y, n)
			z := make([]big.Word, n)
			mod.Mul(z, xl, yl)
			if got := fromLimbs(z); got.Cmp(want) != 0 {
				return fmt.Errorf("Mul(%x, %x) = %x, want %x", x, y, got, want)
			}
			mod.Mul(xl, xl, yl)
			if got := fromLimbs(xl); got.Cmp(want) != 0 {
				return fmt.Errorf("Mul(z=x) (%x, %x) = %x, want %x", x, y, got, want)
			}
			xl = toLimbs(x, n)
			mod.Mul(yl, xl, yl)
			if got := fromLimbs(yl); got.Cmp(want) != 0 {
				return fmt.Errorf("Mul(z=y) (%x, %x) = %x, want %x", x, y, got, want)
			}
		}
		sq := new(big.Int).Mul(x, x)
		sq.Mul(sq, rInv).Mod(sq, m)
		xl := toLimbs(x, n)
		mod.Mul(xl, xl, xl)
		if got := fromLimbs(xl); got.Cmp(sq) != 0 {
			return fmt.Errorf("Mul(z=x=y) (%x) = %x, want %x", x, got, sq)
		}

		xm := make([]big.Word, n)
		mod.ToMont(xm, toLimbs(x, n))
		if got, want := fromLimbs(xm), new(big.Int).Mul(x, r); got.Cmp(want.Mod(want, m)) != 0 {
			return fmt.Errorf("ToMont(%x) = %x, want %x", x, got, want)
		}
		mod.Mul(xm, xm, toLimbs(big.NewInt(1), n))
		if got := fromLimbs(xm); got.Cmp(x) != 0 {
			return fmt.Errorf("Mul(ToMont(%x), 1) = %x", x, got)
		}

		width := (m.BitLen() + 7) / 8
		for _, pad := range []int{0, 3, 300 - width} {
			buf := FillBytes(make([]byte, width+pad), toLimbs(x, n))
			if want := x.FillBytes(make([]byte, width+pad)); !bytes.Equal(buf, want) {
				return fmt.Errorf("FillBytes(%x) = %x, want %x", x, buf, want)
			}
			back := make([]big.Word, n)
			if !mod.SetBytes(back, buf) || fromLimbs(back).Cmp(x) != 0 {
				return fmt.Errorf("SetBytes(%x) = %x, want %x", buf, fromLimbs(back), x)
			}
		}
	}
	z := make([]big.Word, n)
	for _, v := range []*big.Int{m, new(big.Int).Add(m, big.NewInt(5)), new(big.Int).Lsh(big.NewInt(1), uint(n*bits.UintSize))} {
		if mod.SetBytes(z, v.Bytes()) {
			return fmt.Errorf("SetBytes accepted %x >= m", v)
		}
	}
	return nil
}

// TestFillBytesPanicsWhenShort: a value wider than the buffer is refused.
func TestFillBytesPanicsWhenShort(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FillBytes truncated a value")
		}
	}()
	FillBytes(make([]byte, 2), []big.Word{0x10000})
}

func TestNewModulusRejects(t *testing.T) {
	for _, m := range []int64{-3, 0, 1, 2, 4096} {
		if _, err := NewModulus(big.NewInt(m)); err == nil {
			t.Errorf("NewModulus(%d) succeeded", m)
		}
	}
}

// TestMulAllocs: Mul allocates nothing up to stackLimbs limbs.
func TestMulAllocs(t *testing.T) {
	mod, err := NewModulus(oddModulus(t, 2048))
	if err != nil {
		t.Fatal(err)
	}
	x := toLimbs(big.NewInt(12345), mod.Len())
	if n := testing.AllocsPerRun(100, func() { mod.Mul(x, x, x) }); n != 0 {
		t.Fatalf("Mul allocates %v times", n)
	}
}

// BenchmarkMul: one modular multiplication at p² (1024 bits) and n² (2048
// bits) of a 1024-bit Paillier key, by each kernel and by big.Int's Mul and
// QuoRem, the arithmetic Mul replaces.
func BenchmarkMul(b *testing.B) {
	for _, nb := range []int{1024, 2048} {
		m := oddModulus(b, nb)
		mod, err := NewModulus(m)
		if err != nil {
			b.Fatal(err)
		}
		x, y := randBelow(b, m), randBelow(b, m)
		forEachKernel(b, func(kname string) {
			b.Run(fmt.Sprintf("bits=%d/%s", nb, kname), func(b *testing.B) {
				z, yl := toLimbs(x, mod.Len()), toLimbs(y, mod.Len())
				for i := 0; i < b.N; i++ {
					mod.Mul(z, z, yl)
				}
			})
		})
		b.Run(fmt.Sprintf("bits=%d/big.Int", nb), func(b *testing.B) {
			var acc, prod, quo big.Int
			acc.Set(x)
			for i := 0; i < b.N; i++ {
				prod.Mul(&acc, y)
				quo.QuoRem(&prod, m, &acc)
			}
		})
	}
}
