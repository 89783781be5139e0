// Package proxy implements the CryptDB database proxy (Figure 1): it
// intercepts SQL from the application, anonymizes schema names, encrypts
// constants with SQL-aware encryption schemes, adjusts onion layers at the
// DBMS through UDFs, forwards rewritten queries to the (unmodified) embedded
// DBMS, and decrypts results. The DBMS never receives keys to plaintext.
package proxy

import (
	"fmt"
	"sync"

	"repro/internal/crypto/det"
	"repro/internal/crypto/joinadj"
	"repro/internal/crypto/ope"
	"repro/internal/crypto/rnd"
	"repro/internal/crypto/search"
	"repro/internal/onion"
	"repro/internal/sqlparser"
)

// TableMeta is the proxy's private description of one logical table. The
// DBMS only ever sees AnonName and the anonymized column names.
type TableMeta struct {
	Logical string
	Anon    string
	Cols    []*ColumnMeta
	byName  map[string]*ColumnMeta

	// SpeaksFor annotations (multi-principal mode) declared on this table.
	SpeaksFor []sqlparser.SpeaksForAnnot

	nextRid int64
}

// Col looks up a column by logical name.
func (t *TableMeta) Col(name string) *ColumnMeta { return t.byName[name] }

// ColumnMeta is the proxy's private description of one logical column: its
// onions, their current layers, staleness, and cached ciphers.
type ColumnMeta struct {
	Logical string
	Anon    string // anonymized base name, e.g. "c2"
	Type    sqlparser.ColType
	Plain   bool
	MinEnc  onion.Layer // "" means no constraint
	EncFor  *sqlparser.EncForAnnot
	Primary bool
	Table   *TableMeta

	Onions map[onion.Onion]*onion.State
	// Stale marks onions whose stored ciphertexts no longer reflect the
	// latest value because a HOM increment bypassed them (§3.3).
	Stale map[onion.Onion]bool

	// Usage flags for the §8.3 security analysis: whether queries ever
	// exercised the Search or Add onions, and whether any query needed
	// plaintext computation this column cannot support.
	UsedSearch     bool
	UsedSum        bool
	NeedsPlaintext bool

	mu           sync.Mutex
	opeCipher    *ope.Cipher
	detCipher    *det.Cipher
	searchCipher *search.Cipher
	rndCipher    map[onion.Onion]*rnd.Cipher // RND layer of each onion that has one

	// joinKey is the column's current effective JOIN-ADJ key; it changes
	// when the column is re-keyed to a join-base (§3.4).
	joinKey *joinadj.Key
	// joinRefT/joinRefC name the column whose derived JOIN key joinKey
	// currently equals (self initially). Keys only ever take values
	// derivable from some column's key material, so persisting this
	// reference — rather than the scalar — lets a restarted proxy
	// re-derive the exact effective key without writing secret key
	// material anywhere.
	joinRefT, joinRefC string
	// joinGroup points at the transitivity-group representative
	// (union-find; self-rooted initially).
	joinGroup *ColumnMeta

	// opeShared, when set, overrides the per-column OPE key with a
	// declared OPE-JOIN group key (§3.4 range joins); opeSharedLabel is
	// the derivation label it came from, persisted so a restart
	// re-derives the same shared key.
	opeShared      []byte
	opeSharedLabel string

	// Index bookkeeping: the application asked for an index, and which
	// onion indexes have been materialized so far (§3.3: indexes go on
	// DET/JOIN/OPE layers only, so they wait for adjustment).
	wantIndex  bool
	wantUnique bool
	wantUsing  string // "", "HASH" or "BTREE" (normalized)
	idxEq      bool
	idxJadj    bool
	idxOrd     bool
}

// groupRoot finds the column's join transitivity-group representative. It
// only reads: adjNeeded calls it under the read side of Proxy.mu from
// concurrent sessions. adjustJoin, under the write side, is the one place
// that writes joinGroup, and it shortens the paths it walked.
func (c *ColumnMeta) groupRoot() *ColumnMeta {
	for c.joinGroup != c {
		c = c.joinGroup
	}
	return c
}

// HasOnion reports whether the column declares onion o: the plan did not
// discard it. A declared onion may still be deferred (see present).
func (c *ColumnMeta) HasOnion(o onion.Onion) bool {
	_, ok := c.Onions[o]
	return ok
}

// present reports whether onion o holds ciphertexts: declared and not
// deferred.
func (c *ColumnMeta) present(o onion.Onion) bool {
	st := c.Onions[o]
	return st != nil && !st.Deferred
}

// onionList is the one writer list: the onions every INSERT, UPDATE and
// resync encrypts into, in canonical order. It leaves out onions the plan
// discarded and onions still deferred, whose server column stays NULL until
// materialise fills it.
func (c *ColumnMeta) onionList() []onion.Onion {
	var out []onion.Onion
	for _, o := range onion.Onions(c.Type) {
		if c.present(o) {
			out = append(out, o)
		}
	}
	return out
}

// onionCol returns the server-side column name carrying onion o.
func (c *ColumnMeta) onionCol(o onion.Onion) string {
	switch o {
	case onion.Eq:
		return c.Anon + "_eq"
	case onion.JAdj:
		return c.Anon + "_jadj"
	case onion.Ord:
		return c.Anon + "_ord"
	case onion.Add:
		return c.Anon + "_add"
	case onion.Search:
		return c.Anon + "_search"
	}
	return c.Anon
}

// ivCol returns the server-side IV column name.
func (c *ColumnMeta) ivCol() string { return c.Anon + "_iv" }

// mpCol returns the server-side column for multi-principal (ENC FOR)
// storage.
func (c *ColumnMeta) mpCol() string { return c.Anon + "_mp" }

// serverType returns the sqldb column type that stores onion o of this
// column: 64-bit PRP/OPE ciphertexts of integers stay INT, everything else
// is a BLOB.
func (c *ColumnMeta) serverType(o onion.Onion) sqlparser.ColType {
	switch o {
	case onion.Eq, onion.Ord:
		if c.Type == sqlparser.TypeInt {
			return sqlparser.TypeInt
		}
		return sqlparser.TypeBlob
	default:
		return sqlparser.TypeBlob
	}
}

// checkMinEnc returns an error when peeling to layer l would violate the
// developer's MINENC floor for this column (§3.5.1).
func (c *ColumnMeta) checkMinEnc(l onion.Layer) error {
	if c.MinEnc == "" {
		return nil
	}
	if l.SecurityRank() < c.MinEnc.SecurityRank() {
		return fmt.Errorf("proxy: query requires layer %s on %s.%s but schema pins MINENC %s",
			l, c.Table.Logical, c.Logical, c.MinEnc)
	}
	return nil
}
