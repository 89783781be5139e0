package hom

import (
	"crypto/rand"
	"fmt"
	"math/big"

	"repro/internal/crypto/mont"
)

// Encryption randomness with the factorization (see ARCHITECTURE.md,
// "Encryption randomness").
//
// Textbook Paillier draws r from Z*_n and computes ρ = r^n mod n²: one
// exponentiation with an n-sized exponent under a modulus twice that size.
// A key that knows p and q can do better. Modulo p² the n-th residues are
// the cyclic subgroup of order p-1 (the image of x -> x^p, Z*_p lifted),
// and likewise modulo q². So pick one base h per key, set b_p = h^n mod p²
// and b_q = h^n mod q², and draw
//
//	ρ = CRT(b_p^x_p mod p², b_q^x_q mod q²),  x_p ∈ [0, p-1), x_q ∈ [0, q-1)
//
// with fresh full-width exponents from crypto/rand. ρ is r^n for the r that
// is h^x_p mod p² and h^x_q mod q², so it decrypts to zero under any
// decryptor, and it is uniform over <b_p> × <b_q>: every n-th residue when
// b_p and b_q generate their subgroups, which newRNKernel all but ensures. The
// bases being fixed, each power is a table walk (fixedBase) of at most
// ceil(bits/16) half-width Montgomery multiplications (package mont).

// combWindow is the exponent digit width of the fixed-base tables.
const combWindow = 8

// fixedBase raises one base b to secret exponents below ord, modulo mod,
// from a table of b^(d·2^(8i)) for every 8-bit digit d at every position i.
// Read-only once built, so any number of goroutines may use it at once.
type fixedBase struct {
	mod, ord *big.Int
	m        *mont.Modulus // mod, for Montgomery multiplication
	windows  int           // digits in an exponent
	words    int           // words in an entry: m.Len()
	// Entry i<<combWindow|d is b^(d·2^(combWindow·i)) mod mod, as `words`
	// words in m's operand form (SetBytes). The table is key material (it
	// fixes the base of ρ's discrete logarithm) and exists only in memory:
	// 2 MiB per prime at 1024 bits.
	tab []big.Word
	// Entry k is R^k mod mod (R of m), k = 0..windows: where a walk over k
	// nonzero digits starts, so that its k Montgomery multiplications by
	// plain entries, each a factor R⁻¹, end on the plain power.
	start []big.Word
}

func newFixedBase(b, mod, ord *big.Int) (*fixedBase, error) {
	m, err := mont.NewModulus(mod)
	if err != nil {
		return nil, fmt.Errorf("hom: %w", err)
	}
	w := m.Len()
	f := &fixedBase{
		mod: mod, ord: ord, m: m,
		windows: (ord.BitLen() + combWindow - 1) / combWindow,
		words:   w,
	}
	f.tab = make([]big.Word, f.windows<<combWindow*w)
	f.start = make([]big.Word, (f.windows+1)*w)
	f.start[0] = 1
	for k := 1; k <= f.windows; k++ {
		m.ToMont(f.start[k*w:(k+1)*w], f.start[(k-1)*w:k*w])
	}
	// A plain value times a Montgomery form is plain: cur walks the row's
	// powers of step, held in Montgomery form, and each row ends on the
	// next row's step.
	cur, step := make([]big.Word, w), make([]big.Word, w)
	if !m.SetBytes(cur, b.Bytes()) {
		return nil, fmt.Errorf("hom: fixed base not below its modulus")
	}
	m.ToMont(step, cur) // b^(2^(combWindow·i)), Montgomery form
	for i := 0; i < f.windows; i++ {
		clear(cur)
		cur[0] = 1
		for d := 0; d < 1<<combWindow; d++ {
			copy(f.tab[(i<<combWindow|d)*w:], cur)
			m.Mul(cur, cur, step)
		}
		m.ToMont(step, cur) // step^(2^combWindow)
	}
	return f, nil
}

// random returns b^x mod mod for a fresh uniform x in [0, ord).
func (f *fixedBase) random() (*big.Int, error) {
	x, err := rand.Int(rand.Reader, f.ord)
	if err != nil {
		return nil, fmt.Errorf("hom: sampling randomness: %w", err)
	}
	return f.pow(x), nil
}

// pow returns b^x mod mod for 0 <= x < 2^(combWindow·windows): one table
// entry and one Montgomery multiplication per nonzero digit of x, starting
// from R^k for the k nonzero digits.
func (f *fixedBase) pow(x *big.Int) *big.Int {
	digits := x.FillBytes(make([]byte, f.windows)) // big-endian
	k := 0
	for _, d := range digits {
		if d != 0 {
			k++
		}
	}
	acc := make([]big.Word, f.words)
	copy(acc, f.start[k*f.words:])
	for i := 0; i < f.windows; i++ {
		if d := int(digits[f.windows-1-i]); d != 0 {
			j := (i<<combWindow | d) * f.words
			f.m.Mul(acc, acc, f.tab[j:j+f.words])
		}
	}
	return new(big.Int).SetBytes(f.m.FillBytes(make([]byte, (f.mod.BitLen()+7)/8), acc))
}

// smallPrimeBound bounds the primes newRNKernel screens a base for: a base is
// rejected if its order misses any prime factor of p-1 below 2^16.
const smallPrimeBound = 1 << 16

// smallPrimeFactors returns the primes below smallPrimeBound dividing m.
func smallPrimeFactors(m *big.Int) []*big.Int {
	composite := make([]bool, smallPrimeBound)
	var out []*big.Int
	var l, r big.Int
	for i := 2; i < smallPrimeBound; i++ {
		if composite[i] {
			continue
		}
		// From 2i, not i²: i² overflows a 32-bit int.
		for j := 2 * i; j < smallPrimeBound; j += i {
			composite[j] = true
		}
		if r.Mod(m, l.SetInt64(int64(i))).Sign() == 0 {
			out = append(out, big.NewInt(int64(i)))
		}
	}
	return out
}

// fullOrder reports whether b^((p-1)/ℓ) != 1 mod the prime p for every ℓ in
// factors (prime factors of p-1): no ℓ divides the index of <b> in Z*_p.
func fullOrder(b, p, pm1 *big.Int, factors []*big.Int) bool {
	var e, y big.Int
	for _, l := range factors {
		if y.Exp(b, e.Quo(pm1, l), p).Cmp(one) == 0 {
			return false
		}
	}
	return true
}

// rnKernel is a key's fixed-base randomness state.
type rnKernel struct {
	p, q    *fixedBase // bases h^n mod p² and mod q²
	p2InvQ2 *big.Int   // (p²)^-1 mod q², for the CRT recombination
}

// baseOK reports whether h's n-th power generates, modulo p and modulo q,
// a subgroup whose index has no prime factor below smallPrimeBound. The
// order of h^n mod p² equals that of h^n mod p (the n-th residues mod p²
// reduce isomorphically onto their image in Z*_p).
func (k *Key) baseOK(h *big.Int, pFactors, qFactors []*big.Int) bool {
	if new(big.Int).GCD(nil, nil, h, k.N).Cmp(one) != 0 {
		return false
	}
	var e, b big.Int
	return fullOrder(b.Exp(h, e.Mod(k.N, k.pm1), k.p), k.p, k.pm1, pFactors) &&
		fullOrder(b.Exp(h, e.Mod(k.N, k.qm1), k.q), k.q, k.qm1, qFactors)
}

// newRNKernel draws the key's base h and builds both tables. A uniform h
// passes the screen with probability Π(1-1/ℓ) over the small prime factors
// of p-1 and q-1 (at most 1/4: both are even), so this takes a handful of
// draws. A factor ℓ >= 2^16 of p-1 is missed with probability 1/ℓ; p-1 has
// fewer than bits/32 of them, so the subgroup is the whole group of n-th
// residues except with probability below bits/32 · 2^-16 per prime (5·10^-4
// at 1024 bits), and then still has index ℓ in it.
func (k *Key) newRNKernel() (*rnKernel, error) {
	pFactors, qFactors := smallPrimeFactors(k.pm1), smallPrimeFactors(k.qm1)
	for {
		h, err := rand.Int(rand.Reader, k.N)
		if err != nil {
			return nil, fmt.Errorf("hom: sampling randomness: %w", err)
		}
		if !k.baseOK(h, pFactors, qFactors) {
			continue
		}
		p, err := newFixedBase(new(big.Int).Exp(h, k.N, k.p2), k.p2, k.pm1)
		if err != nil {
			return nil, err
		}
		q, err := newFixedBase(new(big.Int).Exp(h, k.N, k.q2), k.q2, k.qm1)
		if err != nil {
			return nil, err
		}
		return &rnKernel{p: p, q: q, p2InvQ2: new(big.Int).ModInverse(k.p2, k.q2)}, nil
	}
}

// draw returns a fresh ρ mod n².
func (r *rnKernel) draw() (*big.Int, error) {
	rp, err := r.p.random()
	if err != nil {
		return nil, err
	}
	rq, err := r.q.random()
	if err != nil {
		return nil, err
	}
	// CRT: ρ = ρ_p + p²·((ρ_q - ρ_p)·(p²)^-1 mod q²), which lies in [0, n²).
	rq.Sub(rq, rp)
	rq.Mul(rq, r.p2InvQ2).Mod(rq, r.q.mod)
	rq.Mul(rq, r.p.mod)
	return rq.Add(rq, rp), nil
}
