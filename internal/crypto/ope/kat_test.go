package ope

import "testing"

// knownAnswer is one (domain, range) configuration of the vectors in
// kat_vectors_test.go: ciphertexts[key][i] is what the parent of PR 16
// returned for plaintexts[i] under NewWithBits([]byte(key), ...). The
// plaintexts are the domain ends, the proxy's integer offset 2^(bits-1)
// plus and minus small and large k, and at 40 bits the proxy's 5-byte
// prefix encoding of a few strings.
type knownAnswer struct {
	domainBits, rangeBits uint
	plaintexts            []uint64
	ciphertexts           map[string][]uint64
}

// TestKnownAnswer pins the OPE mapping: Ord-onion ciphertexts are stored in
// the DBMS and compared there against freshly encrypted constants, so a
// change to hgd, prf or ope that moves one value breaks every range query
// over existing data. Vectors change only together with a migration.
func TestKnownAnswer(t *testing.T) {
	for _, ka := range knownAnswers {
		if len(ka.ciphertexts) < 8 || len(ka.plaintexts) < 16 {
			t.Fatalf("(%d,%d): %d keys x %d plaintexts, want at least 8 x 16",
				ka.domainBits, ka.rangeBits, len(ka.ciphertexts), len(ka.plaintexts))
		}
		for key, want := range ka.ciphertexts {
			c, err := NewWithBits([]byte(key), ka.domainBits, ka.rangeBits)
			if err != nil {
				t.Fatal(err)
			}
			for i, pt := range ka.plaintexts {
				got, err := c.Encrypt(pt)
				if err != nil {
					t.Fatal(err)
				}
				if got != want[i] {
					t.Errorf("(%d,%d) key %q: Encrypt(%#x) = %#x, recorded %#x",
						ka.domainBits, ka.rangeBits, key, pt, got, want[i])
				}
				if back, err := c.Decrypt(want[i]); err != nil || back != pt {
					t.Errorf("(%d,%d) key %q: Decrypt(%#x) = %#x, %v; want %#x",
						ka.domainBits, ka.rangeBits, key, want[i], back, err, pt)
				}
			}
		}
	}
}
