package proxy

import (
	"bytes"
	"fmt"
	"math/big"
	"testing"

	"repro/internal/crypto/hom"
	"repro/internal/sqldb"
)

// refProduct is hom_sum's and hom_add's fold as it was before the
// Montgomery kernel, kept as the reference: big.Int Mul and QuoRem per
// ciphertext into an accumulator that starts at 1.
type refProduct struct {
	acc, c, prod, quo big.Int
}

func (h *refProduct) mul(ct []byte, n2 *big.Int) {
	h.c.SetBytes(ct)
	h.prod.Mul(&h.acc, &h.c)
	h.quo.QuoRem(&h.prod, n2, &h.acc)
}

func (h *refProduct) bytes(n2 *big.Int) []byte {
	return h.acc.FillBytes(make([]byte, (n2.BitLen()+7)/8))
}

// refSum is the reference hom_sum of a group: the product of its non-NULL
// blobs, NULL when there are none.
func refSum(rows []sqldb.Value, n2 *big.Int) sqldb.Value {
	var h refProduct
	h.acc.SetInt64(1)
	nonNull := false
	for _, v := range rows {
		if !v.IsNull() {
			h.mul(v.B, n2)
			nonNull = true
		}
	}
	if !nonNull {
		return sqldb.Null()
	}
	return sqldb.Blob(h.bytes(n2))
}

// refAdd is the reference hom_add.
func refAdd(a, b sqldb.Value, n2 *big.Int) sqldb.Value {
	if a.IsNull() || b.IsNull() {
		return sqldb.Null()
	}
	var h refProduct
	h.acc.SetBytes(a.B)
	h.mul(b.B, n2)
	return sqldb.Blob(h.bytes(n2))
}

// homSumEdges are hom_sum inputs at the edges of the ciphertext range under
// key k: NULL, an empty blob, 0, 1, n²-1, n², 2n²+5, 300 bytes of 0xff,
// a ciphertext one byte wider than the width, and a real ciphertext.
func homSumEdges(tb testing.TB, k *hom.Key) []sqldb.Value {
	tb.Helper()
	ct, err := k.EncryptInt64(-42)
	if err != nil {
		tb.Fatal(err)
	}
	blob := k.CiphertextBytes(ct)
	n2m1 := new(big.Int).Sub(k.N2, big.NewInt(1))
	return []sqldb.Value{
		sqldb.Null(),
		sqldb.Blob([]byte{}),
		sqldb.Blob([]byte{0}),
		sqldb.Blob([]byte{1}),
		sqldb.Blob(n2m1.Bytes()),
		sqldb.Blob(k.N2.Bytes()),
		sqldb.Blob(new(big.Int).Add(new(big.Int).Lsh(k.N2, 1), big.NewInt(5)).Bytes()),
		sqldb.Blob(bytes.Repeat([]byte{0xff}, 300)),
		sqldb.Blob(append([]byte{1}, blob...)),
		sqldb.Blob(blob),
	}
}

// encodeRows and decodeRows frame a sequence of blobs in one fuzz input: a
// two-byte big-endian length, then that many bytes; length 0xffff is NULL.
// A short last record takes what is left.
func encodeRows(rows []sqldb.Value) []byte {
	var out []byte
	for _, v := range rows {
		if v.IsNull() {
			out = append(out, 0xff, 0xff)
			continue
		}
		out = append(out, byte(len(v.B)>>8), byte(len(v.B)))
		out = append(out, v.B...)
	}
	return out
}

func decodeRows(enc []byte) []sqldb.Value {
	var rows []sqldb.Value
	for len(enc) >= 2 {
		n := int(enc[0])<<8 | int(enc[1])
		enc = enc[2:]
		if n == 0xffff {
			rows = append(rows, sqldb.Null())
			continue
		}
		n = min(n, len(enc))
		rows = append(rows, sqldb.Blob(enc[:n]))
		enc = enc[n:]
	}
	return rows
}

func sameValue(a, b sqldb.Value) bool {
	return a.IsNull() == b.IsNull() && (a.IsNull() || a.Kind == b.Kind && bytes.Equal(a.B, b.B))
}

// FuzzHomSum: on any sequence of blobs the server could hold, hom_sum over a
// group of rows (cycling through the blobs) and hom_add over each pair of
// neighbouring rows return exactly the reference big.Int fold's bytes, or
// NULL where it does.
func FuzzHomSum(f *testing.F) {
	p := fixedKeyProxy(f)
	edges := homSumEdges(f, p.homKey)
	for _, rows := range []uint8{0, 1, 2, 3, 64, 65} {
		for _, v := range edges {
			f.Add(encodeRows([]sqldb.Value{v}), rows)
		}
		f.Add(encodeRows(edges), rows)
	}
	udfs, err := newHOMUDFs(p.homKey.N2)
	if err != nil {
		f.Fatal(err)
	}
	n2 := p.homKey.N2
	f.Fuzz(func(t *testing.T, enc []byte, nrows uint8) {
		blobs := decodeRows(enc)
		group := make([]sqldb.Value, nrows)
		for i := range group {
			group[i] = sqldb.Null()
			if len(blobs) > 0 {
				group[i] = blobs[i%len(blobs)]
			}
		}
		s := udfs.sum()
		for _, v := range group {
			if err := s.Step([]sqldb.Value{v}); err != nil {
				t.Fatal(err)
			}
		}
		got, err := s.Final()
		if err != nil {
			t.Fatal(err)
		}
		if want := refSum(group, n2); !sameValue(got, want) {
			t.Fatalf("hom_sum over %d rows of %x: %x, want %x", nrows, enc, got.B, want.B)
		}
		for i := 0; i+1 < len(group); i++ {
			got, err := udfs.add(group[i : i+2])
			if err != nil {
				t.Fatal(err)
			}
			if want := refAdd(group[i], group[i+1], n2); !sameValue(got, want) {
				t.Fatalf("hom_add(%x, %x) = %x, want %x", group[i].B, group[i+1].B, got.B, want.B)
			}
		}
	})
}

// BenchmarkHomSumGroupSize: one group's hom_sum (every step and the final
// blob) at the default 1024-bit modulus, by the Montgomery product and by
// the reference big.Int fold, at the group sizes of the analytic mix's
// shapes: the product's correction costs most, relative to its steps, in
// the smallest groups.
func BenchmarkHomSumGroupSize(b *testing.B) {
	k, err := hom.GenerateKey(hom.DefaultBits)
	if err != nil {
		b.Fatal(err)
	}
	udfs, err := newHOMUDFs(k.N2)
	if err != nil {
		b.Fatal(err)
	}
	rows := make([][]sqldb.Value, 125)
	for i := range rows {
		ct, err := k.EncryptInt64(int64(i))
		if err != nil {
			b.Fatal(err)
		}
		rows[i] = []sqldb.Value{sqldb.Blob(k.CiphertextBytes(ct))}
	}
	for _, n := range []int{1, 2, 3, 10, 125} {
		b.Run(fmt.Sprintf("rows=%d/product", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := udfs.sum()
				for _, r := range rows[:n] {
					if err := s.Step(r); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := s.Final(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("rows=%d/reference", n), func(b *testing.B) {
			group := make([]sqldb.Value, n)
			for i := range group {
				group[i] = rows[i][0]
			}
			for i := 0; i < b.N; i++ {
				refSum(group, k.N2)
			}
		})
	}
}
