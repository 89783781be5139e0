package proxy

import (
	"encoding/binary"
	"fmt"

	"repro/internal/crypto/det"
	"repro/internal/crypto/joinadj"
	"repro/internal/crypto/ope"
	"repro/internal/crypto/rnd"
	"repro/internal/crypto/search"
	"repro/internal/onion"
	"repro/internal/sqldb"
	"repro/internal/sqlparser"
)

// OPE encoding parameters: signed integers are shifted into a 40-bit
// unsigned domain (covering ±2^39), strings contribute their first five
// bytes. The range is 63 bits (vs the paper's 64) so OPE ciphertexts stay
// positive when stored in the DBMS's signed 64-bit integer columns and
// server-side comparisons order them correctly.
const (
	opeDomainBits = 40
	opeRangeBits  = 63
	opeOffset     = int64(1) << (opeDomainBits - 1)
)

// rndDecryptUint64/Bytes adapt package rnd for the decrypt_rnd UDF.
func rndDecryptUint64(key, iv []byte, ct uint64) (uint64, error) {
	return rnd.DecryptUint64(key, iv, ct)
}

func rndDecryptBytes(key, iv, ct []byte) ([]byte, error) {
	return rnd.DecryptBytes(key, iv, ct)
}

// colKey derives the key for one onion layer of a column (Equation 1).
func (p *Proxy) colKey(cm *ColumnMeta, o onion.Onion, l onion.Layer) []byte {
	return p.mk.Derive(cm.Table.Logical, cm.Logical, string(o), string(l))
}

func (p *Proxy) detCipher(cm *ColumnMeta) *det.Cipher {
	cm.mu.Lock()
	defer cm.mu.Unlock()
	if cm.detCipher == nil {
		cm.detCipher = det.New(p.colKey(cm, onion.Eq, onion.DET))
	}
	return cm.detCipher
}

// rndCipher returns the RND layer of onion o of the column, its key derived
// and its key schedules built on first use.
func (p *Proxy) rndCipher(cm *ColumnMeta, o onion.Onion) *rnd.Cipher {
	cm.mu.Lock()
	defer cm.mu.Unlock()
	c := cm.rndCipher[o]
	if c == nil {
		if cm.rndCipher == nil {
			cm.rndCipher = make(map[onion.Onion]*rnd.Cipher)
		}
		c = rnd.New(p.colKey(cm, o, onion.RND))
		cm.rndCipher[o] = c
	}
	return c
}

func (p *Proxy) opeCipher(cm *ColumnMeta) *ope.Cipher {
	cm.mu.Lock()
	defer cm.mu.Unlock()
	if cm.opeCipher == nil {
		key := p.colKey(cm, onion.Ord, onion.OPE)
		if cm.opeShared != nil {
			key = cm.opeShared
		}
		c, err := ope.NewWithBits(key, opeDomainBits, opeRangeBits)
		if err != nil {
			panic("proxy: ope parameters: " + err.Error()) // impossible: constants
		}
		if p.opts.DisableOPECache {
			c.DisableCache()
		}
		cm.opeCipher = c
	}
	return cm.opeCipher
}

func (p *Proxy) searchCipher(cm *ColumnMeta) *search.Cipher {
	cm.mu.Lock()
	defer cm.mu.Unlock()
	if cm.searchCipher == nil {
		cm.searchCipher = search.New(p.colKey(cm, onion.Search, onion.SEARCH))
	}
	return cm.searchCipher
}

func (p *Proxy) joinKey(cm *ColumnMeta) *joinadj.Key {
	cm.mu.Lock()
	defer cm.mu.Unlock()
	if cm.joinKey == nil {
		cm.joinKey = joinadj.DeriveKey(p.colKey(cm, onion.JAdj, onion.JOIN))
	}
	return cm.joinKey
}

// plaintextBytes canonicalizes a value for DET/JOIN-ADJ/SEARCH input.
func plaintextBytes(v sqldb.Value) []byte {
	switch v.Kind {
	case sqldb.KindInt:
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], uint64(v.I))
		return b[:]
	case sqldb.KindText:
		return []byte(v.S)
	case sqldb.KindBlob:
		return v.B
	}
	return nil
}

// opeEncode maps a value into OPE's integer domain, preserving order.
func opeEncode(v sqldb.Value) (uint64, error) {
	switch v.Kind {
	case sqldb.KindInt:
		u := v.I + opeOffset
		if u < 0 || u >= int64(1)<<opeDomainBits {
			return 0, fmt.Errorf("proxy: integer %d outside the OPE domain (±2^%d)", v.I, opeDomainBits-1)
		}
		return uint64(u), nil
	case sqldb.KindText:
		// Order-preserving 5-byte prefix encoding. Longer shared
		// prefixes collide, matching OPE's use for coarse ordering.
		var u uint64
		b := []byte(v.S)
		for i := 0; i < 5; i++ {
			u <<= 8
			if i < len(b) {
				u |= uint64(b[i])
			}
		}
		return u, nil
	}
	return 0, fmt.Errorf("proxy: cannot OPE-encode %s", v.Kind)
}

// opeDecodeInt inverts opeEncode for integers (used to decrypt MIN/MAX
// results, which come back as OPE ciphertexts).
func opeDecodeInt(u uint64) int64 { return int64(u) - opeOffset }

// encryptOnion encrypts plaintext v into onion at.o of column cm at layer
// at.layer, under join key at.key (the column's current one if nil), using
// iv for any RND wrapping.
func (p *Proxy) encryptOnion(cm *ColumnMeta, at onionAt, v sqldb.Value, iv []byte) (sqldb.Value, error) {
	if v.IsNull() {
		return sqldb.Null(), nil // NULLs are exposed unencrypted (§3.3)
	}
	o, cur := at.o, at.layer
	switch o {
	case onion.Eq:
		if cm.Type == sqlparser.TypeInt {
			detCt := p.detCipher(cm).Uint64(uint64(v.I))
			if cur == onion.RND {
				wrapped, err := p.rndCipher(cm, onion.Eq).Uint64(iv, detCt)
				if err != nil {
					return sqldb.Value{}, err
				}
				return sqldb.Int(int64(wrapped)), nil
			}
			return sqldb.Int(int64(detCt)), nil
		}
		detCt := p.detCipher(cm).Bytes(plaintextBytes(v))
		if cur == onion.RND {
			wrapped, err := p.rndCipher(cm, onion.Eq).Bytes(iv, detCt)
			if err != nil {
				return sqldb.Value{}, err
			}
			return sqldb.Blob(wrapped), nil
		}
		return sqldb.Blob(detCt), nil

	case onion.JAdj:
		jk := at.key
		if jk == nil {
			jk = p.joinKey(cm)
		}
		jv := jk.Compute(p.joinPRF, plaintextBytes(v))
		if cur == onion.RND {
			wrapped, err := p.rndCipher(cm, onion.JAdj).Bytes(iv, jv)
			if err != nil {
				return sqldb.Value{}, err
			}
			return sqldb.Blob(wrapped), nil
		}
		return sqldb.Blob(jv), nil

	case onion.Ord:
		enc, err := opeEncode(v)
		if err != nil {
			return sqldb.Value{}, err
		}
		opeCt, err := p.opeCipher(cm).Encrypt(enc)
		if err != nil {
			return sqldb.Value{}, err
		}
		if cur == onion.RND {
			wrapped, err := p.rndCipher(cm, onion.Ord).Uint64(iv, opeCt)
			if err != nil {
				return sqldb.Value{}, err
			}
			return sqldb.Int(int64(wrapped)), nil
		}
		return sqldb.Int(int64(opeCt)), nil

	case onion.Add:
		ct, err := p.homKey.EncryptInt64(v.I)
		if err != nil {
			return sqldb.Value{}, err
		}
		return sqldb.Blob(p.homKey.CiphertextBytes(ct)), nil

	case onion.Search:
		blob, err := p.searchCipher(cm).EncryptText(v.S)
		if err != nil {
			return sqldb.Value{}, err
		}
		return sqldb.Blob(blob), nil
	}
	return sqldb.Value{}, fmt.Errorf("proxy: unknown onion %s", o)
}

// decryptEq recovers plaintext from a column's Eq onion value, stored at
// RND (under its IV) or at DET.
func (p *Proxy) decryptEq(cm *ColumnMeta, ct, iv sqldb.Value, atRND bool) (sqldb.Value, error) {
	if ct.IsNull() {
		return sqldb.Null(), nil
	}

	if cm.Type == sqlparser.TypeInt {
		u := uint64(ct.I)
		if atRND {
			if iv.IsNull() {
				return sqldb.Value{}, fmt.Errorf("proxy: missing IV decrypting %s.%s", cm.Table.Logical, cm.Logical)
			}
			var err error
			u, err = p.rndCipher(cm, onion.Eq).DecryptUint64(iv.B, u)
			if err != nil {
				return sqldb.Value{}, err
			}
		}
		return sqldb.Int(int64(p.detCipher(cm).DecryptUint64(u))), nil
	}

	b := ct.B
	if atRND {
		if iv.IsNull() {
			return sqldb.Value{}, fmt.Errorf("proxy: missing IV decrypting %s.%s", cm.Table.Logical, cm.Logical)
		}
		var err error
		b, err = p.rndCipher(cm, onion.Eq).DecryptBytes(iv.B, b)
		if err != nil {
			return sqldb.Value{}, err
		}
	}
	pt, err := p.detCipher(cm).DecryptBytes(b)
	if err != nil {
		return sqldb.Value{}, err
	}
	if cm.Type == sqlparser.TypeText {
		return sqldb.Text(string(pt)), nil
	}
	return sqldb.Blob(pt), nil
}

// decryptAdd recovers plaintext from the Add onion: SUM and AVG results,
// and the column itself when other onions are stale after an increment
// (§3.3). A ciphertext decrypted before is answered from p.homMemo.
func (p *Proxy) decryptAdd(cm *ColumnMeta, ct sqldb.Value) (sqldb.Value, error) {
	if ct.IsNull() {
		return sqldb.Null(), nil
	}
	v, err := p.homMemo.decrypt(ct.B)
	if err != nil {
		return sqldb.Value{}, err
	}
	return sqldb.Int(v), nil
}

// decryptOrd recovers an integer plaintext from an OPE ciphertext (MIN/MAX
// results). Only valid when the Ord onion is at OPE and the column is an
// integer (string OPE is a lossy prefix encoding).
func (p *Proxy) decryptOrd(cm *ColumnMeta, ct sqldb.Value) (sqldb.Value, error) {
	if ct.IsNull() {
		return sqldb.Null(), nil
	}
	if cm.Type != sqlparser.TypeInt {
		return sqldb.Value{}, fmt.Errorf("proxy: cannot invert string OPE for %s.%s", cm.Table.Logical, cm.Logical)
	}
	u, err := p.opeCipher(cm).Decrypt(uint64(ct.I))
	if err != nil {
		return sqldb.Value{}, err
	}
	return sqldb.Int(opeDecodeInt(u)), nil
}

// encryptConstEq encrypts a query constant for an equality comparison
// against cm: the "successively apply remaining Eq layers" step of §3.3.
// The column must already be at DET (the build's requirement lowers it).
func (p *Proxy) encryptConstEq(cm *ColumnMeta, v sqldb.Value) (sqldb.Value, error) {
	if v.IsNull() {
		return sqldb.Null(), nil
	}
	coerced, err := coerceToColumn(cm, v)
	if err != nil {
		return sqldb.Value{}, err
	}
	if cm.Type == sqlparser.TypeInt {
		return sqldb.Int(int64(p.detCipher(cm).Uint64(uint64(coerced.I)))), nil
	}
	return sqldb.Blob(p.detCipher(cm).Bytes(plaintextBytes(coerced))), nil
}

// encryptConstOrd encrypts a query constant for an order comparison.
func (p *Proxy) encryptConstOrd(cm *ColumnMeta, v sqldb.Value) (sqldb.Value, error) {
	if v.IsNull() {
		return sqldb.Null(), nil
	}
	coerced, err := coerceToColumn(cm, v)
	if err != nil {
		return sqldb.Value{}, err
	}
	enc, err := opeEncode(coerced)
	if err != nil {
		return sqldb.Value{}, err
	}
	ct, err := p.opeCipher(cm).Encrypt(enc)
	if err != nil {
		return sqldb.Value{}, err
	}
	return sqldb.Int(int64(ct)), nil
}

// coerceToColumn aligns a literal's kind with the column type, so that
// `WHERE intcol = '5'` encrypts 5, not the string "5".
func coerceToColumn(cm *ColumnMeta, v sqldb.Value) (sqldb.Value, error) {
	switch cm.Type {
	case sqlparser.TypeInt:
		n, err := v.AsInt()
		if err != nil {
			return sqldb.Value{}, err
		}
		return sqldb.Int(n), nil
	case sqlparser.TypeText:
		if v.Kind == sqldb.KindInt {
			return sqldb.Text(v.String()), nil
		}
		if v.Kind == sqldb.KindBlob {
			return sqldb.Text(string(v.B)), nil
		}
		return v, nil
	default:
		return v, nil
	}
}
