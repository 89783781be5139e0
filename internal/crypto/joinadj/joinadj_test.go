package joinadj

import (
	"bytes"
	"crypto/elliptic"
	"errors"
	"fmt"
	"math/big"
	"testing"
)

var k0 = []byte("shared-prf-key")

func TestDeterministicWithinColumn(t *testing.T) {
	k := DeriveKey([]byte("col-A"))
	a := k.Compute(k0, []byte("alice"))
	b := k.Compute(k0, []byte("alice"))
	if !bytes.Equal(a, b) {
		t.Fatal("JOIN-ADJ must be deterministic")
	}
	if len(a) != Size {
		t.Fatalf("value size = %d, want %d", len(a), Size)
	}
}

func TestInequalityWithinColumn(t *testing.T) {
	k := DeriveKey([]byte("col-A"))
	if bytes.Equal(k.Compute(k0, []byte("alice")), k.Compute(k0, []byte("bob"))) {
		t.Fatal("distinct values collided")
	}
}

func TestNoCrossColumnMatchBeforeAdjust(t *testing.T) {
	// Before adjustment, equal plaintexts in different columns must not
	// match — this is the privacy property of §3.4.
	kA := DeriveKey([]byte("col-A"))
	kB := DeriveKey([]byte("col-B"))
	if bytes.Equal(kA.Compute(k0, []byte("alice")), kB.Compute(k0, []byte("alice"))) {
		t.Fatal("cross-column values matched before adjustment")
	}
}

func TestAdjustEnablesJoin(t *testing.T) {
	kA := DeriveKey([]byte("col-A"))
	kB := DeriveKey([]byte("col-B"))
	valB := kB.Compute(k0, []byte("alice"))

	delta, err := kA.Delta(kB) // re-key B's values to A's key
	if err != nil {
		t.Fatal(err)
	}
	adjusted, err := Adjust(valB, delta)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(adjusted, kA.Compute(k0, []byte("alice"))) {
		t.Fatal("adjusted value does not match the join-base column")
	}
}

func TestAdjustPreservesInequality(t *testing.T) {
	kA := DeriveKey([]byte("col-A"))
	kB := DeriveKey([]byte("col-B"))
	delta, err := kA.Delta(kB)
	if err != nil {
		t.Fatal(err)
	}
	adjAlice, err := Adjust(kB.Compute(k0, []byte("alice")), delta)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(adjAlice, kA.Compute(k0, []byte("bob"))) {
		t.Fatal("adjustment created a spurious match")
	}
}

func TestTransitivity(t *testing.T) {
	// Join A-B then B-C: after both adjust to the same base, A and C
	// values for equal plaintexts match (§3.4 transitivity).
	kA := DeriveKey([]byte("col-A"))
	kB := DeriveKey([]byte("col-B"))
	kC := DeriveKey([]byte("col-C"))

	dB, err := kA.Delta(kB)
	if err != nil {
		t.Fatal(err)
	}
	dC, err := kA.Delta(kC)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Adjust(kB.Compute(k0, []byte("v")), dB)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Adjust(kC.Compute(k0, []byte("v")), dC)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, c) {
		t.Fatal("transitive join values do not match")
	}
}

func TestPRFKeySeparation(t *testing.T) {
	// A different shared PRF key (different master key / deployment)
	// must produce unrelated values.
	k := DeriveKey([]byte("col-A"))
	if bytes.Equal(k.Compute([]byte("k0-one"), []byte("v")), k.Compute([]byte("k0-two"), []byte("v"))) {
		t.Fatal("values match across PRF keys")
	}
}

func TestAdjustRejectsGarbage(t *testing.T) {
	kA := DeriveKey([]byte("col-A"))
	kB := DeriveKey([]byte("col-B"))
	delta, err := kA.Delta(kB)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Adjust([]byte("not a point"), delta); err == nil {
		t.Fatal("want error for malformed point")
	}
	bad := make([]byte, Size)
	bad[0] = 9
	if _, err := Adjust(bad, delta); err == nil {
		t.Fatal("want error for bad prefix byte")
	}
}

func TestCompressRoundTrip(t *testing.T) {
	k := DeriveKey([]byte("col"))
	val := k.Compute(k0, []byte("data"))
	x, y := elliptic.UnmarshalCompressed(curve, val)
	if x == nil {
		t.Fatal("a Compute value did not decode")
	}
	if !bytes.Equal(elliptic.MarshalCompressed(curve, x, y), val) {
		t.Fatal("compress/decompress round trip failed")
	}
}

// referenceDecompress is the SEC1 decoder Adjust used before it called
// elliptic.UnmarshalCompressed, verbatim: a big.Int square root mod p. It
// is the oracle the standard decoder is held to.
func referenceDecompress(b []byte) (*big.Int, *big.Int, error) {
	if len(b) != Size || (b[0] != 2 && b[0] != 3) {
		return nil, nil, fmt.Errorf("joinadj: bad point encoding (%d bytes)", len(b))
	}
	p := curve.Params().P
	x := new(big.Int).SetBytes(b[1:])
	if x.Cmp(p) >= 0 {
		return nil, nil, errors.New("joinadj: x out of range")
	}
	// y² = x³ - 3x + b mod p
	y2 := new(big.Int).Mul(x, x)
	y2.Mul(y2, x)
	three := new(big.Int).Lsh(x, 1)
	three.Add(three, x)
	y2.Sub(y2, three)
	y2.Add(y2, curve.Params().B)
	y2.Mod(y2, p)
	y := new(big.Int).ModSqrt(y2, p)
	if y == nil {
		return nil, nil, errors.New("joinadj: not a curve point")
	}
	if y.Bit(0) != uint(b[0]&1) {
		y.Sub(p, y)
	}
	return x, y, nil
}

// TestDecompressDifferential: elliptic.UnmarshalCompressed accepts exactly
// the encodings the reference decoder accepts, with the same point: Compute
// values of both parities, x at and above p, x whose right-hand side is no
// square, every other prefix byte and wrong lengths.
func TestDecompressDifferential(t *testing.T) {
	var inputs [][]byte
	k := DeriveKey([]byte("col"))
	for i := 0; i < 64; i++ {
		inputs = append(inputs, k.Compute(k0, []byte(fmt.Sprint(i))))
	}
	p := curve.Params().P
	for _, x := range []*big.Int{
		p, new(big.Int).Add(p, big.NewInt(1)),
		new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 256), big.NewInt(1)),
		new(big.Int).Sub(p, big.NewInt(1)), big.NewInt(0),
	} {
		for _, prefix := range []byte{2, 3} {
			b := make([]byte, Size)
			b[0] = prefix
			x.FillBytes(b[1:])
			inputs = append(inputs, b)
		}
	}
	for x := int64(1); x <= 64; x++ { // about half have no square root
		b := make([]byte, Size)
		b[0] = byte(2 + x%2)
		big.NewInt(x).FillBytes(b[1:])
		inputs = append(inputs, b)
	}
	valid := inputs[0]
	for prefix := 0; prefix < 256; prefix++ {
		b := append([]byte{byte(prefix)}, valid[1:]...)
		inputs = append(inputs, b)
	}
	inputs = append(inputs, nil, valid[:Size-1], append(append([]byte{}, valid...), 0))

	accepted, rejected := 0, 0
	for _, b := range inputs {
		wx, wy, err := referenceDecompress(b)
		gx, gy := elliptic.UnmarshalCompressed(curve, b)
		switch {
		case err != nil && gx != nil:
			t.Errorf("%x: accepted, the reference refused it (%v)", b, err)
		case err == nil && gx == nil:
			t.Errorf("%x: refused, the reference decoded it", b)
		case err == nil && (gx.Cmp(wx) != 0 || gy.Cmp(wy) != 0):
			t.Errorf("%x: decoded to another point", b)
		case err == nil:
			accepted++
		default:
			rejected++
		}
	}
	if accepted < 64+20 || rejected < 20 {
		t.Fatalf("%d accepted, %d rejected: the inputs lost their spread", accepted, rejected)
	}
}

func BenchmarkAdjust(b *testing.B) {
	kA, kB := DeriveKey([]byte("col-A")), DeriveKey([]byte("col-B"))
	delta, err := kA.Delta(kB)
	if err != nil {
		b.Fatal(err)
	}
	val := kB.Compute(k0, []byte("v"))
	for i := 0; i < b.N; i++ {
		if _, err := Adjust(val, delta); err != nil {
			b.Fatal(err)
		}
	}
}
