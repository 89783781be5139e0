package mont

import (
	"bytes"
	"crypto/rand"
	"fmt"
	"math/big"
	"math/bits"
	mrand "math/rand"
	"runtime"
	"strings"
	"testing"
)

var kernelNames = map[int]string{kernelGo: "go", kernelMULQ: "mulq", kernelADX: "adx"}

// forEachKernel runs f with each kernel this CPU and build support forced in
// turn: the addMulVVW loop and, under kernelADX, the fused routines.
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
// arithmetic with every kernel forced in turn: at 16 and 32 limbs (p² and n²
// of a 1024-bit Paillier key, the fused routines' sizes), and at 64-, 256-
// and 520-bit moduli, the sizes of the test keys and a limb count that
// leaves a remainder after each unrolled loop. Operands are random plus 0, 1,
// 2, m-2, m-1 and R mod m, and z aliases x, y and both. At 16 and 32 limbs
// it adds the carry edges of the final subtraction (carryEdges): a value
// before it of R or more, so the carry bit is set, and one in [m, R).
func TestMontMulDifferential(t *testing.T) {
	edges := map[int][]mulCase{16: carryEdges(t, 16), 32: carryEdges(t, 32)}
	forEachKernel(t, func(kname string) {
		for n, cases := range edges {
			for _, c := range cases {
				mod, err := NewModulus(c.m)
				if err != nil {
					t.Fatal(err)
				}
				if err := checkMul(mod, c.x, c.y); err != nil {
					t.Fatalf("%s kernel, %d limbs, m = %x: %v", kname, n, c.m, err)
				}
			}
		}
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
	mm1 := new(big.Int).Sub(m, big.NewInt(1))
	ops := []*big.Int{new(big.Int), big.NewInt(1), big.NewInt(2), new(big.Int).Sub(m, big.NewInt(2)), mm1,
		new(big.Int).Mod(r, m)}
	for i := 0; i < 10; i++ {
		ops = append(ops, randBelow(t, m))
	}
	for _, x := range ops {
		for _, y := range ops {
			if err := checkMul(mod, x, y); err != nil {
				return err
			}
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

// checkMul holds mod.Mul(z, x, y) to x·y·R⁻¹ mod m with z apart from x and
// y, z aliasing x, z aliasing y, and z, x and y all one slice (x squared).
func checkMul(mod *Modulus, x, y *big.Int) error {
	n := mod.Len()
	m := fromLimbs(mod.m)
	rInv := new(big.Int).Lsh(big.NewInt(1), uint(n*bits.UintSize))
	rInv.ModInverse(rInv, m)
	want := func(x, y *big.Int) *big.Int {
		w := new(big.Int).Mul(x, y)
		return w.Mul(w, rInv).Mod(w, m)
	}
	xy, xx := want(x, y), want(x, x)
	xl, yl, z := toLimbs(x, n), toLimbs(y, n), make([]big.Word, n)
	mod.Mul(z, xl, yl)
	if got := fromLimbs(z); got.Cmp(xy) != 0 {
		return fmt.Errorf("Mul(%x, %x) = %x, want %x", x, y, got, xy)
	}
	mod.Mul(xl, xl, yl)
	if got := fromLimbs(xl); got.Cmp(xy) != 0 {
		return fmt.Errorf("Mul(z=x) (%x, %x) = %x, want %x", x, y, got, xy)
	}
	xl = toLimbs(x, n)
	mod.Mul(yl, xl, yl)
	if got := fromLimbs(yl); got.Cmp(xy) != 0 {
		return fmt.Errorf("Mul(z=y) (%x, %x) = %x, want %x", x, y, got, xy)
	}
	mod.Mul(xl, xl, xl)
	if got := fromLimbs(xl); got.Cmp(xx) != 0 {
		return fmt.Errorf("Mul(z=x=y) (%x) = %x, want %x", x, got, xx)
	}
	return nil
}

type mulCase struct{ m, x, y *big.Int }

// beforeSubtraction is Mul's value before its final subtraction, in
// [0, 2m): (x·y + q·m)/R for the q < R that makes the sum a multiple of R.
func beforeSubtraction(c mulCase, n int) *big.Int {
	r := new(big.Int).Lsh(big.NewInt(1), uint(n*bits.UintSize))
	xy := new(big.Int).Mul(c.x, c.y)
	q := new(big.Int).ModInverse(c.m, r)
	q.Neg(q).Mul(q, xy).Mod(q, r)
	return q.Mul(q, c.m).Add(q, xy).Rsh(q, uint(n*bits.UintSize))
}

// carryEdges returns n-limb cases whose value before Mul's final
// subtraction is R or more (the carry bit above T[n:] is set) or lies in
// [m, R) (no carry, and T[n:] >= m), found with big.Int: on the all-ones
// modulus R-1, x = y = m-1 gives exactly R and (√R-1)·(√R+1) = m gives m;
// on R-√R-1 and 3R/4+1, operands from a seeded source.
func carryEdges(t testing.TB, n int) []mulCase {
	w := n * bits.UintSize
	r := new(big.Int).Lsh(big.NewInt(1), uint(w))
	h := new(big.Int).Lsh(big.NewInt(1), uint(w/2))
	one := big.NewInt(1)
	ones := new(big.Int).Sub(r, one)
	cases := []mulCase{
		{ones, new(big.Int).Sub(ones, one), new(big.Int).Sub(ones, one)},
		{ones, new(big.Int).Sub(h, one), new(big.Int).Add(h, one)},
	}
	rng := mrand.New(mrand.NewSource(int64(n)))
	for _, m := range []*big.Int{
		new(big.Int).Sub(new(big.Int).Sub(r, h), one),
		new(big.Int).Add(new(big.Int).Rsh(new(big.Int).Mul(r, big.NewInt(3)), 2), one),
	} {
		var high, mid int
		for i := 0; i < 1000 && (high < 2 || mid < 2); i++ {
			c := mulCase{m, new(big.Int).Rand(rng, m), new(big.Int).Rand(rng, m)}
			switch u := beforeSubtraction(c, n); {
			case u.Cmp(r) >= 0 && high < 2:
				high++
				cases = append(cases, c)
			case u.Cmp(m) >= 0 && u.Cmp(r) < 0 && mid < 2:
				mid++
				cases = append(cases, c)
			}
		}
	}
	var high, mid int
	for _, c := range cases {
		u := beforeSubtraction(c, n)
		if u.Cmp(r) >= 0 {
			high++
		} else if u.Cmp(c.m) >= 0 {
			mid++
		}
	}
	if high < 3 || mid < 3 {
		t.Fatalf("%d limbs: %d cases at R or above and %d in [m, R), want 3 of each", n, high, mid)
	}
	return cases
}

// FuzzMontMul holds Mul to x·y·R⁻¹ mod m under every kernel this CPU
// supports, with z aliasing x, y and both (checkMul). size picks the limb
// count: 16 or 32, the fused routines' sizes, or 9, which only the loop
// runs. m is mb's leading bytes at that width, made odd with a nonzero top
// limb, and x and y are xb and yb reduced below m.
func FuzzMontMul(f *testing.F) {
	f.Fuzz(func(t *testing.T, size uint8, mb, xb, yb []byte) {
		n := []int{16, 32, 9}[size%3]
		w := n * bits.UintSize
		if len(mb) > w/8 {
			mb = mb[:w/8]
		}
		m := new(big.Int).SetBytes(mb)
		m.SetBit(m, 0, 1)
		if m.BitLen() <= w-bits.UintSize {
			m.SetBit(m, w-bits.UintSize, 1)
		}
		mod, err := NewModulus(m)
		if err != nil {
			t.Fatal(err)
		}
		x := new(big.Int).SetBytes(xb)
		y := new(big.Int).SetBytes(yb)
		x.Mod(x, m)
		y.Mod(y, m)
		forEachKernel(t, func(kname string) {
			if err := checkMul(mod, x, y); err != nil {
				t.Fatalf("%s kernel, %d limbs, m = %x: %v", kname, n, m, err)
			}
		})
	})
}

// TestMulShortOperandPanics: at the fused routines' sizes, a z, x or y one
// limb short panics with an index error before any kernel reads through it,
// though its capacity covers m.
func TestMulShortOperandPanics(t *testing.T) {
	forEachKernel(t, func(kname string) {
		for _, n := range []int{16, 32} {
			mod, err := NewModulus(oddModulus(t, n*bits.UintSize))
			if err != nil {
				t.Fatal(err)
			}
			for arg, name := range []string{"z", "x", "y"} {
				ops := [3][]big.Word{make([]big.Word, n), make([]big.Word, n), make([]big.Word, n)}
				ops[arg] = ops[arg][:n-1]
				func() {
					defer func() {
						err, ok := recover().(runtime.Error)
						if !ok || !strings.Contains(err.Error(), "index out of range") {
							t.Errorf("%s kernel, %d limbs, short %s: recovered %v, want an index error", kname, n, name, err)
						}
					}()
					mod.Mul(ops[0], ops[1], ops[2])
				}()
			}
		}
	})
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
