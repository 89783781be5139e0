// Package joinadj implements CryptDB's JOIN-ADJ adjustable-join primitive
// (§3.4): a keyed, collision-resistant, non-invertible hash whose key the
// DBMS server can switch without seeing plaintext.
//
//	JOIN-ADJ_K(v) = P^(K · PRF_K0(v))            (Equation 2)
//
// where P is a public elliptic-curve point and the exponentiation is
// EC scalar multiplication. To let the server join columns c and c' with
// keys K and K', the proxy sends ΔK = K/K' (mod the group order); the server
// raises every JOIN-ADJ value in c' to ΔK:
//
//	(JOIN-ADJ_K'(v))^ΔK = P^(K'·PRF(v)·K/K') = JOIN-ADJ_K(v)
//
// The full JOIN layer ciphertext is JOIN(v) = JOIN-ADJ(v) ‖ DET(v): the
// JOIN-ADJ part supports cross-column equality, the DET part lets the proxy
// decrypt. The paper uses a NIST curve; we use P-256 from the standard
// library.
package joinadj

import (
	"crypto/elliptic"
	"errors"
	"fmt"
	"math/big"

	"repro/internal/crypto/prf"
)

var curve = elliptic.P256()

// Size is the serialized size of a JOIN-ADJ value (compressed P-256 point).
const Size = 33

// Key is a per-column join key: a scalar in [1, order).
type Key struct {
	k *big.Int
}

// DeriveKey derives a column's JOIN-ADJ key from key-derivation material.
func DeriveKey(material []byte) *Key {
	// Hash to a scalar in [1, N-1].
	n := new(big.Int).Sub(curve.Params().N, big.NewInt(1))
	k := new(big.Int).SetBytes(prf.Sum(material, []byte("joinadj-key")))
	k.Mod(k, n)
	k.Add(k, big.NewInt(1))
	return &Key{k: k}
}

// Compute evaluates JOIN-ADJ_K(v) with the shared PRF key k0 (same for all
// columns, derived from MK — §3.4).
func (key *Key) Compute(k0, v []byte) []byte {
	// e = K · PRF_K0(v) mod N
	h := new(big.Int).SetBytes(prf.Sum(k0, []byte("joinadj-prf"), v))
	e := h.Mul(h, key.k)
	e.Mod(e, curve.Params().N)
	if e.Sign() == 0 {
		e.SetInt64(1) // negligible-probability degenerate case
	}
	x, y := curve.ScalarBaseMult(e.Bytes())
	return elliptic.MarshalCompressed(curve, x, y)
}

// Delta computes ΔK = K / K' mod N: the adjustment token the proxy sends to
// the server to re-key column c' (with key old) to this column's key.
func (key *Key) Delta(old *Key) (*big.Int, error) {
	inv := new(big.Int).ModInverse(old.k, curve.Params().N)
	if inv == nil {
		return nil, errors.New("joinadj: old key not invertible")
	}
	d := new(big.Int).Mul(key.k, inv)
	return d.Mod(d, curve.Params().N), nil
}

// Adjust re-keys one stored JOIN-ADJ value by ΔK. This is the computation
// CryptDB's server-side UDF performs during an onion-layer join adjustment;
// note it requires neither plaintext nor column keys. The value must be a
// SEC1 compressed P-256 point: elliptic.UnmarshalCompressed checks that x
// is below p and the point is on the curve.
func Adjust(val []byte, delta *big.Int) ([]byte, error) {
	x, y := elliptic.UnmarshalCompressed(curve, val)
	if x == nil {
		return nil, fmt.Errorf("joinadj: bad point encoding (%d bytes)", len(val))
	}
	nx, ny := curve.ScalarMult(x, y, delta.Bytes())
	return elliptic.MarshalCompressed(curve, nx, ny), nil
}
