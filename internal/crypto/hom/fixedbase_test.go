package hom

import (
	"crypto/rand"
	"math/big"
	"sync"
	"testing"
)

// kernelKey generates a key and builds its fixed-base kernel.
func kernelKey(t *testing.T, bits int) *Key {
	t.Helper()
	k, err := GenerateKey(bits)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.freshRN(); err != nil {
		t.Fatal(err)
	}
	if k.rn == nil {
		t.Fatal("a key with its factors did not build the fixed-base kernel")
	}
	return k
}

// TestFixedBaseResidueDecryptsToZero: every ρ the kernel draws is an n-th
// residue — an encryption of zero — to the CRT decryptor and to the
// textbook one, which shares none of the kernel's arithmetic; at the
// paper's size, at small sizes, and with primes of unequal length.
func TestFixedBaseResidueDecryptsToZero(t *testing.T) {
	for _, bits := range []int{256, 257, 511, 512, 1024} {
		k := kernelKey(t, bits)
		textbook := withoutFactors(k)
		seen := map[string]bool{}
		for i := 0; i < 40; i++ {
			rho, err := k.freshRN()
			if err != nil {
				t.Fatal(err)
			}
			if seen[rho.String()] {
				t.Fatalf("%d bits: ρ repeated within %d draws", bits, i)
			}
			seen[rho.String()] = true
			for name, dec := range map[string]*Key{"CRT": k, "textbook": textbook} {
				m, err := dec.Decrypt(rho)
				if err != nil || m.Sign() != 0 {
					t.Fatalf("%d bits: %s decryption of ρ = %v, %v; want 0", bits, name, m, err)
				}
			}
		}
	}
}

// TestFixedBasePow checks the table walk against big.Int.Exp.
func TestFixedBasePow(t *testing.T) {
	k := kernelKey(t, 320)
	for _, f := range []*fixedBase{k.rn.p, k.rn.q} {
		b := new(big.Int).SetBits(f.tab[f.words : 2*f.words]) // entry 1: b^1
		top := new(big.Int).Sub(new(big.Int).Lsh(one, uint(combWindow*f.windows)), one)
		xs := []*big.Int{new(big.Int), big.NewInt(1), big.NewInt(255), big.NewInt(256),
			new(big.Int).Sub(f.ord, one), top}
		for i := 0; i < 50; i++ {
			x, err := rand.Int(rand.Reader, f.ord)
			if err != nil {
				t.Fatal(err)
			}
			xs = append(xs, x)
		}
		for _, x := range xs {
			if got, want := f.pow(x), new(big.Int).Exp(b, x, f.mod); got.Cmp(want) != 0 {
				t.Fatalf("pow(%v) = %v, Exp gives %v", x, got, want)
			}
		}
	}
}

// TestFixedBaseMixesWithTextbook: ciphertexts whose randomness came from the
// kernel and from the textbook exponentiation (the same key restored without
// factors) add, increment and aggregate together, and both kinds of key
// decrypt the results.
func TestFixedBaseMixesWithTextbook(t *testing.T) {
	fast := kernelKey(t, 512)
	textbook := withoutFactors(fast)
	vals := []int64{17, -4, 1 << 40, 0, -(1 << 33), 999999937, -1, 5}
	var want int64
	sum := big.NewInt(1) // hom_sum's accumulator: the product of the column
	for i, v := range vals {
		enc := fast
		if i%2 == 1 {
			enc = textbook
		}
		ct, err := enc.EncryptInt64(v)
		if err != nil {
			t.Fatal(err)
		}
		sum = fast.Add(sum, ct)
		want += v
	}
	a, err := fast.EncryptInt64(100)
	if err != nil {
		t.Fatal(err)
	}
	b, err := textbook.EncryptInt64(-30)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		ct   *big.Int
		want int64
	}{
		{"hom_sum over a mixed column", sum, want},
		{"Add(fast, textbook)", fast.Add(a, b), 70},
		{"Add(textbook, fast)", textbook.Add(b, a), 70},
		{"AddPlain on fast", fast.AddPlain(a, -101), -1},
		{"AddPlain on textbook", fast.AddPlain(b, 31), 1},
	}
	for _, c := range cases {
		for name, dec := range map[string]*Key{"CRT": fast, "textbook": textbook} {
			if got, err := dec.DecryptInt64(c.ct); err != nil || got != c.want {
				t.Errorf("%s, %s decryptor: %d, %v; want %d", c.name, name, got, err, c.want)
			}
		}
	}
}

// TestFixedBaseScreen plants bases whose n-th power has a small-index order
// and checks that the screen rejects them, and that the base a key actually
// built its tables from passes.
func TestFixedBaseScreen(t *testing.T) {
	// A prime p with the largest screened prime dividing p-1.
	const l = 65521
	var p *big.Int
	for p == nil || !p.ProbablyPrime(20) {
		r, err := rand.Int(rand.Reader, new(big.Int).Lsh(one, 150))
		if err != nil {
			t.Fatal(err)
		}
		p = r.Mul(r, big.NewInt(2*l)).Add(r, one)
	}
	q, err := rand.Prime(rand.Reader, 160)
	if err != nil {
		t.Fatal(err)
	}
	k, err := KeyFromPrimes(p, q)
	if err != nil {
		t.Fatal(err)
	}
	pf, qf := smallPrimeFactors(k.pm1), smallPrimeFactors(k.qm1)
	has := func(fs []*big.Int, v int64) bool {
		for _, f := range fs {
			if f.Int64() == v {
				return true
			}
		}
		return false
	}
	if !has(pf, 2) || !has(pf, l) || !has(qf, 2) {
		t.Fatalf("small factors of p-1: %v, of q-1: %v; want 2 and %d, and 2", pf, qf, l)
	}
	for _, f := range pf {
		if new(big.Int).Mod(k.pm1, f).Sign() != 0 || !f.ProbablyPrime(20) {
			t.Fatalf("%v is not a prime factor of p-1", f)
		}
	}

	passed := 0
	for i := 0; i < 64; i++ {
		g, err := rand.Int(rand.Reader, k.N)
		if err != nil {
			t.Fatal(err)
		}
		if k.baseOK(g, pf, qf) {
			passed++
		}
		// g^2 is a square and g^l an l-th power modulo p: its n-th
		// power generates at most index 2 (resp. l) there.
		for _, e := range []int64{2, l} {
			if h := new(big.Int).Exp(g, big.NewInt(e), k.N); k.baseOK(h, pf, qf) {
				t.Fatalf("base g^%d passed the screen", e)
			}
		}
	}
	if passed == 0 {
		t.Fatal("no uniform base out of 64 passed the screen")
	}
	for _, h := range []*big.Int{new(big.Int), big.NewInt(1), p, q} {
		if k.baseOK(h, pf, qf) {
			t.Fatalf("degenerate base %v passed the screen", h)
		}
	}

	// The tables' own bases (entry 1 of each) have full order at every
	// small prime.
	if _, err := k.freshRN(); err != nil {
		t.Fatal(err)
	}
	bp := new(big.Int).SetBits(k.rn.p.tab[k.rn.p.words : 2*k.rn.p.words])
	bq := new(big.Int).SetBits(k.rn.q.tab[k.rn.q.words : 2*k.rn.q.words])
	if !fullOrder(bp.Mod(bp, p), p, k.pm1, pf) || !fullOrder(bq.Mod(bq, q), q, k.qm1, qf) {
		t.Fatal("the kernel's base fails its own screen")
	}
}

// TestFixedBaseConcurrentFirstEncrypt races the table build: 16 goroutines
// make the first encryptions of a fresh key at once (run under -race).
func TestFixedBaseConcurrentFirstEncrypt(t *testing.T) {
	k, err := GenerateKey(512)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int64) {
			defer wg.Done()
			for i := int64(0); i < 8; i++ {
				ct, err := k.EncryptInt64(g*100 + i)
				if err != nil {
					t.Error(err)
					return
				}
				if m, err := k.DecryptInt64(ct); err != nil || m != g*100+i {
					t.Errorf("goroutine %d: decrypted %d, %v", g, m, err)
				}
			}
		}(int64(g))
	}
	wg.Wait()
}

// TestFixedBaseStripFactors: a key stripped of its factors after the kernel
// was built encrypts by the textbook path and drops the tables.
func TestFixedBaseStripFactors(t *testing.T) {
	k := kernelKey(t, 256)
	k.StripFactors()
	if k.rn != nil {
		t.Fatal("StripFactors kept the fixed-base tables")
	}
	ct, err := k.EncryptInt64(-77)
	if err != nil {
		t.Fatal(err)
	}
	if m, err := k.DecryptInt64(ct); err != nil || m != -77 {
		t.Fatalf("decrypted %d, %v", m, err)
	}
}
