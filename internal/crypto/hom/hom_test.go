package hom

import (
	"fmt"
	"math/big"
	"sync"
	"testing"
	"testing/quick"
)

// testKey caches one small key across tests; Paillier keygen is expensive
// and key reuse does not couple the tests below.
var (
	testKeyOnce sync.Once
	testKeyVal  *Key
)

func testKey(t *testing.T) *Key {
	t.Helper()
	testKeyOnce.Do(func() {
		k, err := GenerateKey(512)
		if err != nil {
			t.Fatalf("GenerateKey: %v", err)
		}
		testKeyVal = k
	})
	return testKeyVal
}

func TestRoundTrip(t *testing.T) {
	k := testKey(t)
	for _, m := range []int64{0, 1, 42, 1 << 40} {
		ct, err := k.Encrypt(big.NewInt(m))
		if err != nil {
			t.Fatal(err)
		}
		got, err := k.Decrypt(ct)
		if err != nil {
			t.Fatal(err)
		}
		if got.Int64() != m {
			t.Fatalf("round trip %d -> %v", m, got)
		}
	}
}

func TestProbabilistic(t *testing.T) {
	k := testKey(t)
	a, err := k.Encrypt(big.NewInt(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := k.Encrypt(big.NewInt(7))
	if err != nil {
		t.Fatal(err)
	}
	if a.Cmp(b) == 0 {
		t.Fatal("HOM must be probabilistic (IND-CPA)")
	}
}

func TestAdditiveHomomorphism(t *testing.T) {
	k := testKey(t)
	f := func(a, b uint32) bool {
		ca, err := k.Encrypt(big.NewInt(int64(a)))
		if err != nil {
			return false
		}
		cb, err := k.Encrypt(big.NewInt(int64(b)))
		if err != nil {
			return false
		}
		sum, err := k.Decrypt(k.Add(ca, cb))
		if err != nil {
			return false
		}
		return sum.Int64() == int64(a)+int64(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSignedValues(t *testing.T) {
	k := testKey(t)
	cases := [][2]int64{{-5, 3}, {-100, -200}, {1000, -1}, {0, -7}}
	for _, c := range cases {
		ca, err := k.EncryptInt64(c[0])
		if err != nil {
			t.Fatal(err)
		}
		cb, err := k.EncryptInt64(c[1])
		if err != nil {
			t.Fatal(err)
		}
		got, err := k.DecryptInt64(k.Add(ca, cb))
		if err != nil {
			t.Fatal(err)
		}
		if got != c[0]+c[1] {
			t.Fatalf("%d + %d = %d, want %d", c[0], c[1], got, c[0]+c[1])
		}
	}
}

func TestSumAggregate(t *testing.T) {
	// The UDF path: start from Enc(0) and fold Adds, like SUM over rows.
	k := testKey(t)
	acc, err := k.EncryptZero()
	if err != nil {
		t.Fatal(err)
	}
	want := int64(0)
	for _, v := range []int64{10, 20, 30, -15, 5} {
		ct, err := k.EncryptInt64(v)
		if err != nil {
			t.Fatal(err)
		}
		acc = k.Add(acc, ct)
		want += v
	}
	got, err := k.DecryptInt64(acc)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("SUM = %d, want %d", got, want)
	}
}

func TestAddPlain(t *testing.T) {
	k := testKey(t)
	ct, err := k.EncryptInt64(100)
	if err != nil {
		t.Fatal(err)
	}
	got, err := k.DecryptInt64(k.AddPlain(ct, -30))
	if err != nil {
		t.Fatal(err)
	}
	if got != 70 {
		t.Fatalf("100 + (-30) = %d, want 70", got)
	}
}

func TestIncrementUpdate(t *testing.T) {
	// salary = salary + 1, the UPDATE-inc pattern of §3.3 / Figure 11.
	k := testKey(t)
	ct, err := k.EncryptInt64(41)
	if err != nil {
		t.Fatal(err)
	}
	ct = k.AddPlain(ct, 1)
	got, err := k.DecryptInt64(ct)
	if err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("increment gave %d, want 42", got)
	}
}

func TestPrecomputePool(t *testing.T) {
	k := testKey(t)
	if err := k.Precompute(5); err != nil {
		t.Fatal(err)
	}
	poolSize := func() int {
		k.mu2.Lock()
		defer k.mu2.Unlock()
		return len(k.pool)
	}
	if n := poolSize(); n < 5 {
		t.Fatalf("pool size %d, want >= 5", n)
	}
	before := poolSize()
	if _, err := k.EncryptInt64(9); err != nil {
		t.Fatal(err)
	}
	if poolSize() != before-1 {
		t.Fatalf("encrypt did not consume pool: %d -> %d", before, poolSize())
	}
}

func TestCiphertextSize(t *testing.T) {
	// Paper: with a 1024-bit n, ciphertexts are 2048 bits.
	k, err := GenerateKey(DefaultBits)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := k.EncryptInt64(123)
	if err != nil {
		t.Fatal(err)
	}
	b := k.CiphertextBytes(ct)
	if len(b) != 256 {
		t.Fatalf("ciphertext blob = %d bytes, want 256 (2048 bits)", len(b))
	}
	if k.CiphertextFromBytes(b).Cmp(ct) != 0 {
		t.Fatal("serialization round trip failed")
	}
}

func TestEncryptOutOfRange(t *testing.T) {
	k := testKey(t)
	if _, err := k.Encrypt(new(big.Int).Neg(big.NewInt(1))); err == nil {
		t.Fatal("want error for negative raw plaintext")
	}
	if _, err := k.Encrypt(new(big.Int).Set(k.N)); err == nil {
		t.Fatal("want error for plaintext >= n")
	}
}

func TestDecryptOutOfRange(t *testing.T) {
	k := testKey(t)
	if _, err := k.Decrypt(big.NewInt(0)); err == nil {
		t.Fatal("want error for zero ciphertext")
	}
	if _, err := k.Decrypt(new(big.Int).Set(k.N2)); err == nil {
		t.Fatal("want error for ciphertext >= n^2")
	}
}

func TestGenerateKeyTooSmall(t *testing.T) {
	if _, err := GenerateKey(32); err == nil {
		t.Fatal("want error for tiny modulus")
	}
}

// withoutFactors clones the key's serializable private material (N, lambda,
// mu) only, as a key deserialized without its factorization would look.
func withoutFactors(k *Key) *Key {
	return &Key{N: k.N, N2: k.N2, G: k.G, lambda: k.lambda, mu: k.mu}
}

func TestDecryptCRTMatchesTextbook(t *testing.T) {
	k := testKey(t)
	if k.p == nil {
		t.Fatal("generated key should carry its factors")
	}
	slow := withoutFactors(k)
	for _, m := range []int64{0, 1, 2, 42, -1, -7, 1 << 40, -(1 << 40), 999999937} {
		ct, err := k.EncryptInt64(m)
		if err != nil {
			t.Fatal(err)
		}
		fast, err := k.DecryptInt64(ct)
		if err != nil {
			t.Fatalf("CRT decrypt(%d): %v", m, err)
		}
		ref, err := slow.DecryptInt64(ct)
		if err != nil {
			t.Fatalf("textbook decrypt(%d): %v", m, err)
		}
		if fast != m || ref != m {
			t.Fatalf("decrypt(%d): CRT %d, textbook %d", m, fast, ref)
		}
	}
}

func TestDecryptCRTQuick(t *testing.T) {
	k := testKey(t)
	slow := withoutFactors(k)
	f := func(m int64) bool {
		ct, err := k.EncryptInt64(m)
		if err != nil {
			return false
		}
		a, errA := k.DecryptInt64(ct)
		b, errB := slow.DecryptInt64(ct)
		return errA == nil && errB == nil && a == m && b == m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestStripFactors(t *testing.T) {
	k, err := GenerateKey(256)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := k.EncryptInt64(1234)
	if err != nil {
		t.Fatal(err)
	}
	k.StripFactors()
	if k.p != nil {
		t.Fatal("factors not stripped")
	}
	m, err := k.DecryptInt64(ct)
	if err != nil || m != 1234 {
		t.Fatalf("fallback decrypt: %d, %v", m, err)
	}
}

// benchKeyPair returns the shared bench key plus its factor-stripped twin.
func benchKeyPair(b *testing.B) (*Key, *Key) {
	b.Helper()
	testKeyOnce.Do(func() {
		k, err := GenerateKey(512)
		if err != nil {
			b.Fatalf("GenerateKey: %v", err)
		}
		testKeyVal = k
	})
	return testKeyVal, withoutFactors(testKeyVal)
}

// BenchmarkDecryptCRT: DecryptInt64 with the key's factors, two
// exponentiations mod p² and q², at the shared 512-bit bench key and at the
// paper's DefaultBits, the cost of a proxy's Add-onion decryption.
func BenchmarkDecryptCRT(b *testing.B) {
	for _, bits := range []int{512, DefaultBits} {
		b.Run(fmt.Sprintf("bits=%d", bits), func(b *testing.B) {
			k, _ := benchKeyPair(b)
			if bits != k.N.BitLen() {
				var err error
				if k, err = GenerateKey(bits); err != nil {
					b.Fatal(err)
				}
			}
			ct, err := k.EncryptInt64(42)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := k.DecryptInt64(ct); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEncrypt: EncryptInt64 at the paper's 1024-bit modulus with an
// empty pool, after the first encryption has built the fixed-base tables:
// the cost of an INSERT's or an increment's Add onion.
func BenchmarkEncrypt(b *testing.B) {
	k, err := GenerateKey(DefaultBits)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := k.EncryptInt64(1); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.EncryptInt64(int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecryptNoCRT(b *testing.B) {
	_, slow := benchKeyPair(b)
	fast, _ := benchKeyPair(b)
	ct, err := fast.EncryptInt64(42)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := slow.DecryptInt64(ct); err != nil {
			b.Fatal(err)
		}
	}
}
