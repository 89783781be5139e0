// Package hom implements CryptDB's HOM layer (§3.1): the Paillier
// cryptosystem, an IND-CPA-secure additively homomorphic scheme. The DBMS
// server multiplies ciphertexts (via a UDF) to obtain the encryption of the
// sum, which supports SUM aggregates, AVG (sum + count) and increment
// UPDATEs without ever seeing plaintext.
//
// Ciphertexts are 2048 bits (n is 1024 bits), matching the paper. Paillier
// encryption's dominant cost is the fresh n-th residue r^n mod n^2. A key
// that holds its factorization — the proxy's always does — draws it from
// fixed-base tables mod p² and q² at about a tenth of the textbook cost (see
// fixedbase.go); the package also keeps the paper's §3.5.2 optimization of
// precomputing a pool of such values off the critical path; see Precompute.
package hom

import (
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"
	"sync"
)

// DefaultBits is the bit length of the modulus n (ciphertexts are 2·n bits).
const DefaultBits = 1024

var one = big.NewInt(1)

// Key holds a Paillier key pair. Public components: N, G. Private: Lambda,
// Mu. The zero value is unusable; construct with GenerateKey.
type Key struct {
	N  *big.Int // modulus
	N2 *big.Int // n^2, the ciphertext modulus
	G  *big.Int // generator, n+1

	lambda *big.Int // lcm(p-1, q-1)
	mu     *big.Int // (L(g^lambda mod n^2))^-1 mod n

	// CRT decryption state (Paillier §7): exponentiating mod p² and q²
	// separately with the half-width exponents p-1 and q-1 is ~4x cheaper
	// than one full-width exponentiation mod n². All nil for keys restored
	// without their factorization; Decrypt then takes the slow path.
	p, q     *big.Int
	p2, q2   *big.Int // p², q²
	pm1, qm1 *big.Int // p-1, q-1
	hp, hq   *big.Int // (L_p(g^(p-1) mod p²))^-1 mod p, and mod-q twin
	pInvQ    *big.Int // p^-1 mod q, for the CRT recombination

	// Fixed-base randomness kernel (fixedbase.go), built on the first
	// encryption of a key that has its factors; read-only afterwards.
	rnOnce sync.Once
	rn     *rnKernel
	rnErr  error

	mu2  sync.Mutex
	pool []*big.Int // precomputed r^n mod n^2 values
}

// GenerateKey creates a fresh Paillier key with an n-bit modulus.
func GenerateKey(bits int) (*Key, error) {
	if bits < 64 {
		return nil, fmt.Errorf("hom: modulus of %d bits is too small", bits)
	}
	for {
		p, err := rand.Prime(rand.Reader, bits/2)
		if err != nil {
			return nil, fmt.Errorf("hom: generating prime: %w", err)
		}
		q, err := rand.Prime(rand.Reader, bits-bits/2)
		if err != nil {
			return nil, fmt.Errorf("hom: generating prime: %w", err)
		}
		if p.Cmp(q) == 0 {
			continue
		}
		if new(big.Int).Mul(p, q).BitLen() != bits {
			continue
		}
		k, err := KeyFromPrimes(p, q)
		if err != nil {
			continue // degenerate; retry
		}
		return k, nil
	}
}

// KeyFromPrimes reconstructs the full key — public components, lambda/mu,
// and the CRT decryption state — from its secret prime factorization. The
// proxy's durable state file stores only (p, q); everything else above is
// derived, so a restarted proxy decrypts old Add-onion ciphertexts with a
// key identical to the one that produced them.
func KeyFromPrimes(p, q *big.Int) (*Key, error) {
	if p.Cmp(q) == 0 {
		return nil, fmt.Errorf("hom: p and q must differ")
	}
	n := new(big.Int).Mul(p, q)
	pm1 := new(big.Int).Sub(p, one)
	qm1 := new(big.Int).Sub(q, one)
	lambda := new(big.Int).Mul(pm1, qm1)
	lambda.Div(lambda, new(big.Int).GCD(nil, nil, pm1, qm1)) // lcm

	n2 := new(big.Int).Mul(n, n)
	g := new(big.Int).Add(n, one)

	// mu = (L(g^lambda mod n^2))^-1 mod n
	glambda := new(big.Int).Exp(g, lambda, n2)
	l := lFunc(glambda, n)
	mu := new(big.Int).ModInverse(l, n)
	if mu == nil {
		return nil, fmt.Errorf("hom: degenerate modulus")
	}

	// CRT decryption constants.
	p2 := new(big.Int).Mul(p, p)
	q2 := new(big.Int).Mul(q, q)
	hp := crtH(g, p, p2, pm1)
	hq := crtH(g, q, q2, qm1)
	pInvQ := new(big.Int).ModInverse(p, q)
	if hp == nil || hq == nil || pInvQ == nil {
		return nil, fmt.Errorf("hom: degenerate primes")
	}
	return &Key{
		N: n, N2: n2, G: g, lambda: lambda, mu: mu,
		p: p, q: q, p2: p2, q2: q2, pm1: pm1, qm1: qm1,
		hp: hp, hq: hq, pInvQ: pInvQ,
	}, nil
}

// Primes returns the secret factorization for serialization, or ok=false
// for a key restored without it (see StripFactors).
func (k *Key) Primes() (p, q *big.Int, ok bool) {
	if k.p == nil {
		return nil, nil, false
	}
	return new(big.Int).Set(k.p), new(big.Int).Set(k.q), true
}

// crtH computes (L_p(g^(p-1) mod p²))^-1 mod p, the per-prime decryption
// constant, where L_p(x) = (x-1)/p. Returns nil when not invertible.
func crtH(g, p, p2, pm1 *big.Int) *big.Int {
	gp := new(big.Int).Exp(g, pm1, p2)
	l := lFunc(gp, p)
	l.Mod(l, p)
	return new(big.Int).ModInverse(l, p)
}

// StripFactors discards the key's prime factorization, modeling a key
// restored from serialized (N, lambda, mu) material only. Decrypt falls
// back to the single full-width exponentiation path, and Encrypt to the
// textbook r^n.
func (k *Key) StripFactors() {
	k.p, k.q = nil, nil
	k.p2, k.q2 = nil, nil
	k.pm1, k.qm1 = nil, nil
	k.hp, k.hq, k.pInvQ = nil, nil, nil
	k.rn = nil
}

// lFunc computes L(x) = (x-1)/n.
func lFunc(x, n *big.Int) *big.Int {
	l := new(big.Int).Sub(x, one)
	return l.Div(l, n)
}

// Precompute fills the pool with count fresh r^n values so subsequent
// Encrypt calls skip the expensive exponentiation. The paper pre-computes
// 30,000 such values using idle proxy time (§3.5.2, Figure 12).
func (k *Key) Precompute(count int) error {
	vals := make([]*big.Int, 0, count)
	for i := 0; i < count; i++ {
		rn, err := k.freshRN()
		if err != nil {
			return err
		}
		vals = append(vals, rn)
	}
	k.mu2.Lock()
	k.pool = append(k.pool, vals...)
	k.mu2.Unlock()
	return nil
}

// PoolSize reports how many precomputed r^n values remain.
func (k *Key) PoolSize() int {
	k.mu2.Lock()
	defer k.mu2.Unlock()
	return len(k.pool)
}

// freshRN returns a fresh n-th residue mod n². With the factorization it
// comes from the fixed-base kernel, at about a tenth of the cost; without
// (StripFactors), from the textbook exponentiation. Both decrypt to zero
// under either kind of key and mix freely under Add.
func (k *Key) freshRN() (*big.Int, error) {
	if k.p != nil {
		k.rnOnce.Do(func() { k.rn, k.rnErr = k.newRNKernel() })
		if k.rnErr != nil {
			return nil, k.rnErr
		}
		return k.rn.draw()
	}
	for {
		r, err := rand.Int(rand.Reader, k.N)
		if err != nil {
			return nil, fmt.Errorf("hom: sampling randomness: %w", err)
		}
		if r.Sign() == 0 {
			continue
		}
		if new(big.Int).GCD(nil, nil, r, k.N).Cmp(one) != 0 {
			continue
		}
		return new(big.Int).Exp(r, k.N, k.N2), nil
	}
}

func (k *Key) takeRN() (*big.Int, error) {
	k.mu2.Lock()
	if n := len(k.pool); n > 0 {
		rn := k.pool[n-1]
		k.pool = k.pool[:n-1]
		k.mu2.Unlock()
		return rn, nil
	}
	k.mu2.Unlock()
	return k.freshRN()
}

// Encrypt encrypts a non-negative integer m < n:
// c = g^m · r^n mod n^2.
func (k *Key) Encrypt(m *big.Int) (*big.Int, error) {
	if m.Sign() < 0 || m.Cmp(k.N) >= 0 {
		return nil, fmt.Errorf("hom: plaintext out of range [0, n)")
	}
	rn, err := k.takeRN()
	if err != nil {
		return nil, err
	}
	// g = n+1, so g^m = 1 + m·n mod n^2 (binomial shortcut).
	gm := new(big.Int).Mul(m, k.N)
	gm.Add(gm, one)
	gm.Mod(gm, k.N2)
	return gm.Mul(gm, rn).Mod(gm, k.N2), nil
}

// EncryptInt64 encrypts a signed 64-bit value, encoding negatives as n - |m|
// so that homomorphic sums of mixed-sign values decrypt correctly as long as
// the true sum stays within ±2^255.
func (k *Key) EncryptInt64(m int64) (*big.Int, error) {
	b := big.NewInt(m)
	if m < 0 {
		b.Add(k.N, b)
	}
	return k.Encrypt(b)
}

// Decrypt recovers the plaintext. With the factorization available it uses
// the CRT: m_p = L_p(c^(p-1) mod p²)·h_p mod p (and the mod-q twin), then
// recombines — two half-width exponentiations with half-width exponents in
// place of one full-width one. Without factors it computes the textbook
// m = L(c^lambda mod n^2) · mu mod n.
func (k *Key) Decrypt(c *big.Int) (*big.Int, error) {
	if c.Sign() <= 0 || c.Cmp(k.N2) >= 0 {
		return nil, errors.New("hom: ciphertext out of range")
	}
	if k.p == nil {
		clambda := new(big.Int).Exp(c, k.lambda, k.N2)
		m := lFunc(clambda, k.N)
		m.Mul(m, k.mu)
		return m.Mod(m, k.N), nil
	}
	cp := new(big.Int).Exp(new(big.Int).Mod(c, k.p2), k.pm1, k.p2)
	mp := lFunc(cp, k.p)
	mp.Mul(mp, k.hp).Mod(mp, k.p)

	cq := new(big.Int).Exp(new(big.Int).Mod(c, k.q2), k.qm1, k.q2)
	mq := lFunc(cq, k.q)
	mq.Mul(mq, k.hq).Mod(mq, k.q)

	// CRT: m = m_p + p·((m_q - m_p)·p^-1 mod q), which lies in [0, n).
	u := new(big.Int).Sub(mq, mp)
	u.Mul(u, k.pInvQ).Mod(u, k.q)
	m := new(big.Int).Mul(u, k.p)
	return m.Add(m, mp), nil
}

// DecryptInt64 decrypts and decodes the signed representation used by
// EncryptInt64.
func (k *Key) DecryptInt64(c *big.Int) (int64, error) {
	m, err := k.Decrypt(c)
	if err != nil {
		return 0, err
	}
	half := new(big.Int).Rsh(k.N, 1)
	if m.Cmp(half) > 0 { // negative value
		m.Sub(m, k.N)
	}
	if !m.IsInt64() {
		return 0, errors.New("hom: decrypted value does not fit in int64")
	}
	return m.Int64(), nil
}

// Add homomorphically adds two ciphertexts: Enc(a)·Enc(b) = Enc(a+b).
// This is the operation CryptDB's hom_add UDF performs at the DBMS server.
func (k *Key) Add(c1, c2 *big.Int) *big.Int {
	out := new(big.Int).Mul(c1, c2)
	return out.Mod(out, k.N2)
}

// AddPlain homomorphically adds a plaintext constant: Enc(a)·g^b = Enc(a+b).
func (k *Key) AddPlain(c *big.Int, b int64) *big.Int {
	bb := big.NewInt(b)
	if b < 0 {
		bb.Add(k.N, bb)
	}
	gb := new(big.Int).Mul(bb, k.N)
	gb.Add(gb, one)
	gb.Mod(gb, k.N2)
	out := new(big.Int).Mul(c, gb)
	return out.Mod(out, k.N2)
}

// EncryptZero returns a fresh encryption of zero (the neutral element for
// server-side SUM aggregation).
func (k *Key) EncryptZero() (*big.Int, error) {
	return k.Encrypt(big.NewInt(0))
}

// CiphertextBytes serializes a ciphertext to a fixed-width big-endian blob
// (2·bits/8 bytes), the format stored in the DBMS Add onion column.
func (k *Key) CiphertextBytes(c *big.Int) []byte {
	return c.FillBytes(make([]byte, (k.N2.BitLen()+7)/8))
}

// CiphertextFromBytes parses a blob produced by CiphertextBytes.
func (k *Key) CiphertextFromBytes(b []byte) *big.Int {
	return new(big.Int).SetBytes(b)
}
