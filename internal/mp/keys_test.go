package mp

import (
	"bytes"
	"crypto/ecdh"
	"encoding/hex"
	"testing"
)

// testPrincipal returns a fixed X25519 private key, so that blobs in the
// committed fuzz corpus stay sealed to it.
func testPrincipal(tb testing.TB, seed byte) *ecdh.PrivateKey {
	tb.Helper()
	priv, err := ecdh.X25519().NewPrivateKey(bytes.Repeat([]byte{seed}, x25519Size))
	if err != nil {
		tb.Fatal(err)
	}
	return priv
}

// FuzzUnwrapAsym feeds unwrapAsym any bytes the server could hand back: the
// result is an error or a payload, never a panic, and no blob opens under
// two principals' keys. The input is also sealed to principal A: it opens
// under A to the same bytes, not under B, and not once a byte is flipped.
func FuzzUnwrapAsym(f *testing.F) {
	a, b := testPrincipal(f, 1), testPrincipal(f, 2)
	f.Fuzz(func(t *testing.T, blob []byte) {
		_, errA := unwrapAsym(a, blob)
		_, errB := unwrapAsym(b, blob)
		if errA == nil && errB == nil {
			t.Fatal("one blob opened under two principals' keys")
		}

		sealed, err := wrapAsym(a.PublicKey(), blob)
		if err != nil {
			t.Fatal(err)
		}
		if pt, err := unwrapAsym(a, sealed); err != nil || !bytes.Equal(pt, blob) {
			t.Fatalf("round trip: %x, %v", pt, err)
		}
		if _, err := unwrapAsym(b, sealed); err == nil {
			t.Fatal("blob sealed to A opened under B")
		}
		i := len(blob) % len(sealed)
		sealed[i] ^= 1 << (len(blob) % 8)
		if _, err := unwrapAsym(a, sealed); err == nil {
			t.Fatalf("blob with byte %d flipped opened", i)
		}
	})
}

// TestUnwrapAsymLowOrder: an ephemeral key of small order (or a
// non-canonical encoding of one) makes the shared secret all zeros, which
// ECDH refuses. Each blob here is sealed under the key an all-zero secret
// derives, so it would open if that secret were accepted.
func TestUnwrapAsymLowOrder(t *testing.T) {
	a := testPrincipal(t, 1)
	for _, h := range []string{
		"0000000000000000000000000000000000000000000000000000000000000000",
		"0100000000000000000000000000000000000000000000000000000000000000",
		"e0eb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b800",
		"5f9c95bca3508c24b1d0b1559c83ef5b04445cc4581c8e86d8224eddd09f1157",
		"ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
		"edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
		"eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
	} {
		eph, _ := hex.DecodeString(h)
		sealed, err := wrapSym(sealKey(make([]byte, x25519Size), eph, a.PublicKey().Bytes()), make([]byte, symKeySize))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := unwrapAsym(a, append(eph, sealed...)); err == nil {
			t.Errorf("ephemeral key %s accepted", h)
		}
	}
}
