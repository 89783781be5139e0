package mont

import (
	"bytes"
	"crypto/rand"
	"fmt"
	"math/big"
	"math/bits"
	mrand "math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
)

var kernelNames = map[int]string{kernelGo: "go", kernelADX: "adx", kernelIFMA: "ifma"}

// forEachKernel runs f with each kernel this CPU and build support forced in
// turn: the addMulVVW loop, under kernelADX the fused routines, and under
// kernelIFMA digit form at 32 limbs. A modulus takes its form when it is
// built, so f builds its own.
func forEachKernel(t testing.TB, f func(name string)) {
	defer func(k int) { kernel = k }(kernel)
	for k := kernelGo; k <= detectKernel(); k++ {
		kernel = k
		f(kernelNames[k])
	}
}

// TestReportKernel logs the kernel this process chose, for
// TestKernelFollowsGODEBUG to read from a child, and the kernels
// forEachKernel forces here, so that a run's log says which ones it tested.
func TestReportKernel(t *testing.T) {
	t.Log("kernel=" + kernelNames[kernel])
	var forced []string
	forEachKernel(t, func(name string) { forced = append(forced, name) })
	t.Log("mont: " + strings.Join(forced, " "))
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

// rBits returns log2 of mod's R: W per limb, or 52 per digit.
func rBits(mod *Modulus) int {
	if mod.digits {
		return 52 * mod.Len()
	}
	return bits.UintSize * mod.Len()
}

// radix returns the bits of one operand word of mod.
func radix(mod *Modulus) int { return rBits(mod) / mod.Len() }

// toOperand and fromOperand convert between big.Int and mod's operand form
// with big.Int arithmetic alone, apart from SetBytes and FillBytes; a word
// at or above the radix is an error.
func toOperand(mod *Modulus, x *big.Int) []big.Word {
	z, w := make([]big.Word, mod.Len()), radix(mod)
	mask := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), uint(w)), big.NewInt(1))
	for i, v := 0, new(big.Int).Set(x); i < len(z); i, v = i+1, v.Rsh(v, uint(w)) {
		z[i] = big.Word(new(big.Int).And(v, mask).Uint64())
	}
	return z
}

func fromOperand(mod *Modulus, z []big.Word) (*big.Int, error) {
	x, w := new(big.Int), radix(mod)
	for i := len(z) - 1; i >= 0; i-- {
		if w < bits.UintSize && z[i]>>w != 0 {
			return nil, fmt.Errorf("word %d is %x, not below 2^%d", i, z[i], w)
		}
		x.Lsh(x, uint(w)).Or(x, new(big.Int).SetUint64(uint64(z[i])))
	}
	return x, nil
}

// TestMontMulDifferential holds Mul, ToMont and the byte I/O to big.Int
// arithmetic with every kernel forced in turn: at 16 and 32 limbs (p² and n²
// of a 1024-bit Paillier key, the fused routines' and digit form's sizes),
// and at 64-, 256- and 520-bit moduli, the sizes of the test keys and a limb
// count that leaves a remainder after each unrolled loop. Operands are
// random plus 0, 1, 2, m-2, m-1 and R mod m, and z aliases x, y and both. At
// 16 and 32 limbs it adds the carry edges of the limb form's final
// subtraction (carryEdges): a value before it of R or more, so the carry bit
// is set, and one in [m, R). At 32 limbs it adds the digit form's
// (subtractionEdges): 2048-bit moduli with a value before the subtraction in
// [m, 2m) for R = 2^2080, m itself among them.
//
// The digit model (ammRef) is held to big.Int on every GOARCH and build, on
// the digit form's edges and on 0, 1, m-1 and random operands of 520- to
// 2048-bit moduli; where the CPU has IFMA, checkMul holds amm52x40 to it.
func TestMontMulDifferential(t *testing.T) {
	edges := map[int][]mulCase{16: carryEdges(t, 16), 32: carryEdges(t, 32)}
	digitCases := subtractionEdges(t, 2048, 52*40)
	edges[32] = append(edges[32], digitCases...)
	for _, b := range []int{520, 1024, 2048} {
		m := oddModulus(t, b)
		ops := []*big.Int{new(big.Int), big.NewInt(1), new(big.Int).Sub(m, big.NewInt(1)), randBelow(t, m), randBelow(t, m)}
		for _, x := range ops {
			for _, y := range ops {
				digitCases = append(digitCases, mulCase{m, x, y})
			}
		}
	}
	for _, c := range digitCases {
		if err := checkDigitModel(c); err != nil {
			t.Fatalf("digit model, m = %x: %v", c.m, err)
		}
	}
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
	if want := (m.BitLen() + radix(mod) - 1) / radix(mod); n != want {
		return fmt.Errorf("Len %d, want %d", n, want)
	}
	r := new(big.Int).Lsh(big.NewInt(1), uint(rBits(mod)))
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
		mod.ToMont(xm, toOperand(mod, x))
		if got, err := fromOperand(mod, xm); err != nil || got.Cmp(new(big.Int).Mod(new(big.Int).Mul(x, r), m)) != 0 {
			return fmt.Errorf("ToMont(%x) = %x, %v", x, got, err)
		}
		mod.Mul(xm, xm, toOperand(mod, big.NewInt(1)))
		if got, err := fromOperand(mod, xm); err != nil || got.Cmp(x) != 0 {
			return fmt.Errorf("Mul(ToMont(%x), 1) = %x, %v", x, got, err)
		}

		width := (m.BitLen() + 7) / 8
		for _, pad := range []int{0, 3, 300 - width} {
			buf := mod.FillBytes(make([]byte, width+pad), toOperand(mod, x))
			if want := x.FillBytes(make([]byte, width+pad)); !bytes.Equal(buf, want) {
				return fmt.Errorf("FillBytes(%x) = %x, want %x", x, buf, want)
			}
			back := make([]big.Word, n)
			ok := mod.SetBytes(back, buf)
			if got, err := fromOperand(mod, back); !ok || err != nil || got.Cmp(x) != 0 {
				return fmt.Errorf("SetBytes(%x) = %x, %v, %v; want %x", buf, got, ok, err, x)
			}
		}
	}
	z := make([]big.Word, n)
	top := new(big.Int).Lsh(big.NewInt(1), uint(len(m.Bits())*bits.UintSize))
	for _, v := range []*big.Int{m, new(big.Int).Add(m, big.NewInt(5)), top, new(big.Int).Sub(top, big.NewInt(1)),
		new(big.Int).Lsh(big.NewInt(1), uint(rBits(mod)))} {
		if v.Cmp(m) >= 0 && mod.SetBytes(z, v.Bytes()) {
			return fmt.Errorf("SetBytes accepted %x >= m", v)
		}
	}
	return nil
}

// checkMul holds mod.Mul(z, x, y) to x·y·R⁻¹ mod m with z apart from x and
// y, z aliasing x, z aliasing y, and z, x and y all one slice (x squared).
func checkMul(mod *Modulus, x, y *big.Int) error {
	n := mod.Len()
	m, err := fromOperand(mod, mod.m)
	if err != nil {
		return err
	}
	rInv := new(big.Int).Lsh(big.NewInt(1), uint(rBits(mod)))
	rInv.ModInverse(rInv, m)
	want := func(x, y *big.Int) *big.Int {
		w := new(big.Int).Mul(x, y)
		return w.Mul(w, rInv).Mod(w, m)
	}
	xy, xx := want(x, y), want(x, x)
	check := func(name string, z []big.Word, want *big.Int) error {
		if got, err := fromOperand(mod, z); err != nil || got.Cmp(want) != 0 {
			return fmt.Errorf("%s (%x, %x) = %x, %v; want %x", name, x, y, got, err, want)
		}
		return nil
	}
	xl, yl, z := toOperand(mod, x), toOperand(mod, y), make([]big.Word, n)
	mod.Mul(z, xl, yl)
	if err := check("Mul", z, xy); err != nil {
		return err
	}
	if mod.digits {
		ref := make([]uint64, n)
		ammRef(ref, words64(xl), words64(yl), words64(mod.m), uint64(mod.m0inv))
		if got := words64(z); !slices.Equal(got, ref) {
			return fmt.Errorf("amm52x40(%x, %x) = %x, the digit model %x", x, y, got, ref)
		}
	}
	mod.Mul(xl, xl, yl)
	if err := check("Mul(z=x)", xl, xy); err != nil {
		return err
	}
	xl = toOperand(mod, x)
	mod.Mul(yl, xl, yl)
	if err := check("Mul(z=y)", yl, xy); err != nil {
		return err
	}
	mod.Mul(xl, xl, xl)
	return check("Mul(z=x=y)", xl, xx)
}

type mulCase struct{ m, x, y *big.Int }

// words64 returns z's words as uint64s.
func words64(z []big.Word) []uint64 {
	u := make([]uint64, len(z))
	for i, w := range z {
		u[i] = uint64(w)
	}
	return u
}

// ammRef is a model of amm52x40 in Go, on uint64 digits so that it runs on
// any GOARCH and build: z = x·y·2^-2080 mod m, canonical, for 40-digit
// operands x, y < m < 2^2048 and k0 = -m⁻¹ mod 2^52. Each row adds x·y[i]
// and q·m, with q chosen to clear digit 0, and drops digit 0. As
// VPMADD52LUQ and VPMADD52HUQ add them, a product's low 52 bits go to its
// own digit and its high bits to the digit above, and the digits carry only
// at the end; digit 0 alone carries every row, so that q sees it whole. The
// value is then below 2m, and one subtraction makes it canonical.
func ammRef(z, x, y, m []uint64, k0 uint64) {
	var a [ifmaDigits + 1]uint64
	for i := 0; i < ifmaDigits; i++ {
		_, lo := mul52(x[0], y[i])
		q := (a[0] + lo) * k0 & digitMask
		for j := 0; j < ifmaDigits; j++ {
			xh, xl := mul52(x[j], y[i])
			mh, ml := mul52(q, m[j])
			a[j] += xl + ml
			a[j+1] += xh + mh
		}
		a[1] += a[0] >> digitBits
		copy(a[:], a[1:])
		a[ifmaDigits] = 0
	}
	var t [ifmaDigits]uint64
	var c, b uint64
	for j := range t {
		v := a[j] + c
		z[j], c = v&digitMask, v>>digitBits
		d := z[j] - m[j] - b
		t[j], b = d&digitMask, d>>63
	}
	if b == 0 {
		copy(z, t[:])
	}
}

// mul52 returns the product of two digits as its bits above 52 and its low
// 52 bits.
func mul52(x, y uint64) (hi, lo uint64) {
	h, l := bits.Mul64(x, y)
	return h<<(64-digitBits) | l>>digitBits, l & digitMask
}

// checkDigitModel holds ammRef to x·y·2^-2080 mod m for m below 2^2048.
// m, x and y go in by setDigits and the result comes out by
// fillBytesDigits, and each conversion is held to big.Int on the way: the
// digits to the value's 52-bit slices, and the bytes back to the value, in
// a buffer shorter and one longer than digit form's 260 bytes.
func checkDigitModel(c mulCase) error {
	var m, x, y, z [ifmaDigits]uint64
	mask := new(big.Int).SetUint64(digitMask)
	for _, op := range []struct {
		d []uint64
		v *big.Int
	}{{m[:], c.m}, {x[:], c.x}, {y[:], c.y}} {
		setDigits(op.d, op.v.Bytes())
		for i, d := range op.d {
			if want := new(big.Int).Rsh(op.v, uint(digitBits*i)); d != want.And(want, mask).Uint64() {
				return fmt.Errorf("setDigits(%x): digit %d is %x, want %x", op.v, i, d, want)
			}
		}
		for _, width := range []int{ifmaLimbs * 8, 300} {
			if b, want := fillBytesDigits(make([]byte, width), op.d), op.v.FillBytes(make([]byte, width)); !bytes.Equal(b, want) {
				return fmt.Errorf("fillBytesDigits(setDigits(%x)) = %x", op.v, b)
			}
		}
	}
	r := new(big.Int).Lsh(big.NewInt(1), digitBits*ifmaDigits)
	k0 := new(big.Int).Lsh(big.NewInt(1), digitBits)
	k0.Sub(k0, new(big.Int).ModInverse(c.m, k0))
	ammRef(z[:], x[:], y[:], m[:], k0.Uint64())
	got := new(big.Int).SetBytes(fillBytesDigits(make([]byte, ifmaLimbs*8), z[:]))
	want := new(big.Int).Mul(c.x, c.y)
	want.Mul(want, r.ModInverse(r, c.m)).Mod(want, c.m)
	if got.Cmp(want) != 0 {
		return fmt.Errorf("ammRef(%x, %x) = %x, want %x", c.x, c.y, got, want)
	}
	return nil
}

// beforeSubtraction is Mul's value before its final subtraction, in
// [0, 2m): (x·y + q·m)/R for R = 2^rbits and the q < R that makes the sum
// a multiple of R.
func beforeSubtraction(c mulCase, rbits int) *big.Int {
	r := new(big.Int).Lsh(big.NewInt(1), uint(rbits))
	xy := new(big.Int).Mul(c.x, c.y)
	q := new(big.Int).ModInverse(c.m, r)
	q.Neg(q).Mul(q, xy).Mod(q, r)
	return q.Mul(q, c.m).Add(q, xy).Rsh(q, uint(rbits))
}

// subtractionEdges returns cases on random odd moduli of mbits bits whose
// value before Mul's final subtraction, for R = 2^rbits, lies in [m, 2m),
// checked with beforeSubtraction. For R far above m a random case lands
// there with odds of about m/R, so they are built: the value is m + t when
// x·y = s·m + t·R and q = R - s, so for x = m-1 and a small t, y = u·m - t·R
// with u = ceil(t·R/m) (then y < m, and s = y - u). And on m = a·b, x = a·c
// and y = b·d (c < b, d < a) give x·y = c·d·m, so the value is m itself and
// the result zero.
func subtractionEdges(t testing.TB, mbits, rbits int) []mulCase {
	r := new(big.Int).Lsh(big.NewInt(1), uint(rbits))
	one := big.NewInt(1)
	var cases []mulCase
	for i := 0; i < 3; i++ {
		m := oddModulus(t, mbits)
		x := new(big.Int).Sub(m, one)
		for _, tt := range []*big.Int{one, big.NewInt(2), randBelow(t, new(big.Int).Lsh(one, 64))} {
			tr := new(big.Int).Mul(tt, r)
			u := new(big.Int).Add(tr, new(big.Int).Sub(m, one))
			u.Quo(u, m)
			y := new(big.Int).Sub(new(big.Int).Mul(u, m), tr)
			cases = append(cases, mulCase{m, x, y}, mulCase{m, y, x})
		}
		// a and b at 3/4 of their ranges or above, so that m has mbits bits.
		a, b := oddModulus(t, mbits/2), oddModulus(t, mbits-mbits/2)
		a.SetBit(a, mbits/2-2, 1)
		b.SetBit(b, mbits-mbits/2-2, 1)
		m = new(big.Int).Mul(a, b)
		c, d := randBelow(t, b), randBelow(t, a)
		cases = append(cases, mulCase{m, c.Mul(c, a), d.Mul(d, b)})
	}
	for _, c := range cases {
		if u := beforeSubtraction(c, rbits); u.Cmp(c.m) < 0 || u.Cmp(new(big.Int).Lsh(c.m, 1)) >= 0 || c.m.BitLen() != mbits {
			t.Fatalf("m = %x, x = %x, y = %x: %d-bit modulus, value before the subtraction %x, not in [m, 2m)", c.m, c.x, c.y, c.m.BitLen(), u)
		}
	}
	return cases
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
			switch u := beforeSubtraction(c, w); {
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
		u := beforeSubtraction(c, w)
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
// supports, with z aliasing x, y and both (checkMul), and the digit model
// (checkDigitModel) to x·y·2^-2080 mod m. size picks the limb count: 16 or
// 32, the fused routines' sizes (32 is digit form under kernelIFMA), or 9,
// which only the loop runs. m is mb's leading bytes at that width, made odd
// with a nonzero top limb, and x and y are xb and yb reduced below m. The
// seed is 32 limbs whose value before digit form's final subtraction is
// m+1 (subtractionEdges, with x = m-1).
func FuzzMontMul(f *testing.F) {
	one := big.NewInt(1)
	m := new(big.Int).Sub(new(big.Int).Lsh(one, 2048), big.NewInt(159))
	r := new(big.Int).Lsh(one, digitBits*ifmaDigits)
	y := new(big.Int).Add(r, new(big.Int).Sub(m, one))
	y.Quo(y, m).Mul(y, m).Sub(y, r)
	f.Add(uint8(1), m.Bytes(), new(big.Int).Sub(m, one).Bytes(), y.Bytes())
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
		x := new(big.Int).SetBytes(xb)
		y := new(big.Int).SetBytes(yb)
		x.Mod(x, m)
		y.Mod(y, m)
		forEachKernel(t, func(kname string) {
			mod, err := NewModulus(m)
			if err != nil {
				t.Fatal(err)
			}
			if err := checkMul(mod, x, y); err != nil {
				t.Fatalf("%s kernel, %d limbs, m = %x: %v", kname, n, m, err)
			}
		})
		if err := checkDigitModel(mulCase{m, x, y}); err != nil {
			t.Fatalf("digit model, %d limbs, m = %x: %v", n, m, err)
		}
	})
}

// TestMulShortOperandPanics: at the fused routines' sizes, a z, x or y one
// word short panics with an index error before any kernel reads through it,
// though its capacity covers m.
func TestMulShortOperandPanics(t *testing.T) {
	forEachKernel(t, func(kname string) {
		for _, n := range []int{16, 32} {
			mod, err := NewModulus(oddModulus(t, n*bits.UintSize))
			if err != nil {
				t.Fatal(err)
			}
			n := mod.Len()
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

// TestFillBytesPanicsWhenShort: a value wider than the buffer is refused,
// in either form: a 3-byte value into 2 bytes, and under every kernel a
// 2048-bit one into 255, and so by fillBytesDigits on any GOARCH.
func TestFillBytesPanicsWhenShort(t *testing.T) {
	m := oddModulus(t, 2048)
	x := new(big.Int).Sub(m, big.NewInt(1))
	forEachKernel(t, func(kname string) {
		for _, c := range []struct {
			m, x  *big.Int
			width int
		}{{big.NewInt(0x10001), big.NewInt(0x10000), 2}, {m, x, 255}} {
			mod, err := NewModulus(c.m)
			if err != nil {
				t.Fatal(err)
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s kernel: FillBytes truncated %x to %d bytes", kname, c.x, c.width)
					}
				}()
				mod.FillBytes(make([]byte, c.width), toOperand(mod, c.x))
			}()
		}
	})
	d := make([]uint64, ifmaDigits)
	setDigits(d, x.Bytes())
	defer func() {
		if recover() == nil {
			t.Errorf("fillBytesDigits truncated %x to 255 bytes", x)
		}
	}()
	fillBytesDigits(make([]byte, 255), d)
}

func TestNewModulusRejects(t *testing.T) {
	for _, m := range []int64{-3, 0, 1, 2, 4096} {
		if _, err := NewModulus(big.NewInt(m)); err == nil {
			t.Errorf("NewModulus(%d) succeeded", m)
		}
	}
}

// TestMulAllocs: Mul allocates nothing up to stackLimbs limbs, under every
// kernel.
func TestMulAllocs(t *testing.T) {
	m := oddModulus(t, 2048)
	forEachKernel(t, func(kname string) {
		mod, err := NewModulus(m)
		if err != nil {
			t.Fatal(err)
		}
		x := toOperand(mod, big.NewInt(12345))
		if n := testing.AllocsPerRun(100, func() { mod.Mul(x, x, x) }); n != 0 {
			t.Fatalf("%s kernel: Mul allocates %v times", kname, n)
		}
	})
}

// BenchmarkMul: one modular multiplication at p² (1024 bits) and n² (2048
// bits) of a 1024-bit Paillier key, by each kernel and by big.Int's Mul and
// QuoRem, the arithmetic Mul replaces. At 1024 bits the ifma arm runs the
// ADX routine: digit form is for 32 limbs alone.
func BenchmarkMul(b *testing.B) {
	for _, nb := range []int{1024, 2048} {
		m := oddModulus(b, nb)
		x, y := randBelow(b, m), randBelow(b, m)
		forEachKernel(b, func(kname string) {
			mod, err := NewModulus(m)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("bits=%d/%s", nb, kname), func(b *testing.B) {
				z, yl := toOperand(mod, x), toOperand(mod, y)
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
