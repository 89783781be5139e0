package feistel

import (
	"testing"
	"testing/quick"
)

func TestRoundTrip(t *testing.T) {
	c := New([]byte("key"))
	f := func(v uint64) bool {
		return c.Decrypt(c.Encrypt(v)) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministic(t *testing.T) {
	c := New([]byte("key"))
	if c.Encrypt(42) != c.Encrypt(42) {
		t.Fatal("encryption not deterministic")
	}
}

func TestKeySeparation(t *testing.T) {
	c1 := New([]byte("key1"))
	c2 := New([]byte("key2"))
	same := 0
	for v := uint64(0); v < 64; v++ {
		if c1.Encrypt(v) == c2.Encrypt(v) {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d/64 ciphertexts identical across keys", same)
	}
}

func TestPermutationInjective(t *testing.T) {
	c := New([]byte("key"))
	seen := make(map[uint64]uint64)
	for v := uint64(0); v < 10000; v++ {
		ct := c.Encrypt(v)
		if prev, dup := seen[ct]; dup {
			t.Fatalf("collision: Enc(%d) == Enc(%d)", v, prev)
		}
		seen[ct] = v
	}
}

func TestDiffusion(t *testing.T) {
	// Flipping one plaintext bit should change roughly half the
	// ciphertext bits on average.
	c := New([]byte("key"))
	totalFlips := 0
	const trials = 256
	for i := 0; i < trials; i++ {
		v := uint64(i) * 0x9e3779b97f4a7c15
		a := c.Encrypt(v)
		b := c.Encrypt(v ^ 1)
		diff := a ^ b
		for diff != 0 {
			totalFlips += int(diff & 1)
			diff >>= 1
		}
	}
	avg := float64(totalFlips) / trials
	if avg < 24 || avg > 40 {
		t.Fatalf("average bit flips = %v, want ~32", avg)
	}
}

func TestZeroBlock(t *testing.T) {
	c := New([]byte("key"))
	if c.Encrypt(0) == 0 {
		t.Fatal("Enc(0) == 0 is vanishingly unlikely for a PRP")
	}
	if c.Decrypt(c.Encrypt(0)) != 0 {
		t.Fatal("round trip of zero failed")
	}
}

// TestFeistelKnownAnswer pins the permutation to values recorded at commit
// 335a5e2, before the rounds shared one scratch block: DET and RND INT
// ciphertexts stored in the DBMS are these values (RND's under CBC).
func TestFeistelKnownAnswer(t *testing.T) {
	vectors := []struct {
		key    string
		pt, ct uint64
	}{
		{"feistel-kat-0", 0x0, 0x9ab3f23b14901ef2},
		{"feistel-kat-0", 0x1, 0xeb54f58486eece43},
		{"feistel-kat-0", 0x8000000000000000, 0x36b5a790f6f4d151},
		{"feistel-kat-0", 0xffffffffffffffff, 0x41bd95d8d25abbab},
		{"feistel-kat-0", 0x123456789abcdef, 0xf05da28dd7d22d06},
		{"feistel-kat-1", 0x0, 0x1e755bf7bda44dbf},
		{"feistel-kat-1", 0x1, 0x4f07fdda63017484},
		{"feistel-kat-1", 0x8000000000000000, 0xce044cb797248e63},
		{"feistel-kat-1", 0xffffffffffffffff, 0xf7879d15cb13cb5f},
		{"feistel-kat-1", 0x123456789abcdef, 0xae3457ca14496a30},
	}
	for _, v := range vectors {
		c := New([]byte(v.key))
		if got := c.Encrypt(v.pt); got != v.ct {
			t.Errorf("Encrypt(%q, %#x) = %#x, recorded %#x", v.key, v.pt, got, v.ct)
		}
		if got := c.Decrypt(v.ct); got != v.pt {
			t.Errorf("Decrypt(%q, %#x) = %#x, want %#x", v.key, v.ct, got, v.pt)
		}
	}
}

// TestFeistelAllocs holds Encrypt and Decrypt to one allocation each: the
// scratch block the four rounds share, which escapes through the
// cipher.Block interface call. A per-round block would cost eight.
func TestFeistelAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation")
	}
	c := New([]byte("key"))
	v := uint64(0x0123456789abcdef)
	if n := testing.AllocsPerRun(100, func() { v = c.Encrypt(v) }); n > 1 {
		t.Errorf("Encrypt: %v allocs/op, want <= 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { v = c.Decrypt(v) }); n > 1 {
		t.Errorf("Decrypt: %v allocs/op, want <= 1", n)
	}
}
