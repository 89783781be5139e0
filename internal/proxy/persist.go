// Durable proxy state. CryptDB's security argument assumes the proxy's
// per-column onion levels and key material survive restarts — a proxy that
// forgets that it peeled a column's Ord onion to OPE, or loses the Paillier
// primes behind an Add onion, can never decrypt the rows it stored. Two
// artifacts make the proxy restartable:
//
//  1. A key file (<data-dir>/proxy-keys.json, mode 0600) holding the master
//     key MK and the Paillier primes. It is written once when the data
//     directory is initialized and never changes; every column key
//     re-derives from MK (Equation 1), so no other secret needs to persist.
//     Protect it like a TLS private key — a production deployment would
//     wrap it with a KMS.
//
//  2. A sealed metadata blob — the serialization of every TableMeta /
//     ColumnMeta: logical-to-anonymous name maps, onion stacks and current
//     layers, staleness, join-key identities, annotations. It is encrypted
//     (AES-256-GCM under a key derived from MK) and handed to the DBMS's
//     write-ahead log, attached to the same WAL batch as the server-side
//     statement that invalidates the previous version (sqldb.ExecWithMeta).
//     Sealing keeps the DBMS oblivious to logical schema names, preserving
//     the paper's anonymization; riding the WAL makes an onion adjustment
//     and the metadata recording it atomic across crashes: recovery can
//     never observe "RND stripped but proxy still thinks RND" or the
//     reverse.
//
// Join keys and OPE-JOIN keys are persisted by *reference*, not value: a
// column's effective JOIN-ADJ key is always some column's derived key, so
// the blob stores which column's (joinRefT/joinRefC) and restore re-derives
// it from MK. No per-column secret ever leaves the proxy.
package proxy

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/crypto/joinadj"
	"repro/internal/fsutil"
	"repro/internal/onion"
	"repro/internal/sqldb"
	"repro/internal/sqlparser"
)

const (
	keyFileName  = "proxy-keys.json"
	metaSealInfo = "proxy-meta-seal"
	// metaVersion 2 added metaOnion.Deferred. A version-1 blob has every
	// declared onion present, which is what an absent field decodes to, so it
	// is read as is; a version-1 binary must not read a version-2 blob (it
	// would treat a deferred onion's NULL column as data), hence the bump.
	metaVersion = 2
)

// keyFile is the once-written secret material of a data directory.
type keyFile struct {
	Version   int    `json:"version"`
	MasterKey []byte `json:"master_key"`
	HomBits   int    `json:"hom_bits"`
	HomP      []byte `json:"hom_p"`
	HomQ      []byte `json:"hom_q"`
}

// metaState is the JSON form of the proxy's dynamic metadata (the sealed
// blob's plaintext).
type metaState struct {
	Version int         `json:"version"`
	NTab    int         `json:"ntab"`
	Tables  []metaTable `json:"tables"`
}

type metaTable struct {
	Logical   string          `json:"logical"`
	Anon      string          `json:"anon"`
	SpeaksFor []metaSpeaksFor `json:"speaks_for,omitempty"`
	Cols      []metaColumn    `json:"cols"`
}

// metaSpeaksFor mirrors sqlparser.SpeaksForAnnot with the optional IF
// predicate rendered to SQL text (an AST is not JSON-serializable); restore
// re-parses it.
type metaSpeaksFor struct {
	AColumn string `json:"a_column,omitempty"`
	AConst  string `json:"a_const,omitempty"`
	AType   string `json:"a_type"`
	BColumn string `json:"b_column"`
	BType   string `json:"b_type"`
	If      string `json:"if,omitempty"`
}

type metaOnion struct {
	Stack    []string `json:"stack"`
	Cur      int      `json:"cur"`
	Deferred bool     `json:"deferred,omitempty"`
}

type metaColumn struct {
	Logical        string                 `json:"logical"`
	Anon           string                 `json:"anon"`
	Type           int                    `json:"type"`
	Plain          bool                   `json:"plain,omitempty"`
	MinEnc         string                 `json:"min_enc,omitempty"`
	EncFor         *sqlparser.EncForAnnot `json:"enc_for,omitempty"`
	Primary        bool                   `json:"primary,omitempty"`
	Onions         map[string]metaOnion   `json:"onions,omitempty"`
	Stale          []string               `json:"stale,omitempty"`
	UsedSearch     bool                   `json:"used_search,omitempty"`
	UsedSum        bool                   `json:"used_sum,omitempty"`
	NeedsPlaintext bool                   `json:"needs_plaintext,omitempty"`
	OpeSharedLabel string                 `json:"ope_shared_label,omitempty"`
	JoinRefT       string                 `json:"join_ref_t,omitempty"`
	JoinRefC       string                 `json:"join_ref_c,omitempty"`
	JoinRootT      string                 `json:"join_root_t,omitempty"`
	JoinRootC      string                 `json:"join_root_c,omitempty"`
	WantIndex      bool                   `json:"want_index,omitempty"`
	WantUnique     bool                   `json:"want_unique,omitempty"`
	WantUsing      string                 `json:"want_using,omitempty"`
	IdxEq          bool                   `json:"idx_eq,omitempty"`
	IdxJadj        bool                   `json:"idx_jadj,omitempty"`
	IdxOrd         bool                   `json:"idx_ord,omitempty"`
}

// persistent reports whether this proxy was opened with a data directory.
func (p *Proxy) persistent() bool { return p.dataDir != "" }

// stmtApplied reports whether an erroring statement nevertheless applied
// in memory (a WAL durability failure). The proxy's metadata transitions
// must then be kept, not rolled back: memory state and would-have-been
// disk state moved together (data and sealed metadata share one WAL
// batch), so a rollback would desynchronize the layer bookkeeping from
// the ciphertexts — e.g. re-running a decrypt_rnd adjustment over
// already-peeled DET values.
func stmtApplied(err error) bool {
	var de *sqldb.DurabilityError
	return errors.As(err, &de)
}

// loadOrCreateKeyFile returns the directory's key material, generating and
// writing it on first use. homBits is only consulted when generating.
func loadOrCreateKeyFile(dir string, homBits int) (*keyFile, bool, error) {
	path := filepath.Join(dir, keyFileName)
	data, err := os.ReadFile(path)
	if err == nil {
		var kf keyFile
		if err := json.Unmarshal(data, &kf); err != nil {
			return nil, false, fmt.Errorf("proxy: corrupt key file %s: %w", path, err)
		}
		if kf.Version != 1 {
			return nil, false, fmt.Errorf("proxy: key file version %d not supported", kf.Version)
		}
		if homBits != 0 && homBits != kf.HomBits {
			return nil, false, fmt.Errorf("proxy: data dir was initialized with HOMBits=%d, requested %d", kf.HomBits, homBits)
		}
		return &kf, false, nil
	}
	if !os.IsNotExist(err) {
		return nil, false, err
	}
	return nil, true, nil
}

// writeKeyFile writes key material atomically and durably with owner-only
// permissions. Losing the key file loses every ciphertext in the store,
// so the install is fsynced end to end — a crash right after first boot
// must not leave a data directory whose keys evaporated with the page
// cache.
func writeKeyFile(dir string, kf *keyFile) error {
	data, err := json.MarshalIndent(kf, "", "  ")
	if err != nil {
		return err
	}
	if err := fsutil.InstallFile(filepath.Join(dir, keyFileName), data, 0o600); err != nil {
		return fmt.Errorf("proxy: installing key file: %w", err)
	}
	return nil
}

//
// Sealing
//

func (p *Proxy) metaAEAD() (cipher.AEAD, error) {
	block, err := aes.NewCipher(p.mk.DeriveLabel(metaSealInfo))
	if err != nil {
		return nil, err
	}
	return cipher.NewGCM(block)
}

// sealMeta encrypts a metadata blob so the DBMS (and its WAL files) store
// only ciphertext: the schema anonymization survives durability.
func (p *Proxy) sealMeta(plain []byte) ([]byte, error) {
	aead, err := p.metaAEAD()
	if err != nil {
		return nil, err
	}
	nonce := make([]byte, aead.NonceSize())
	if _, err := rand.Read(nonce); err != nil {
		return nil, err
	}
	return aead.Seal(nonce, nonce, plain, nil), nil
}

func (p *Proxy) openSealedMeta(sealed []byte) ([]byte, error) {
	aead, err := p.metaAEAD()
	if err != nil {
		return nil, err
	}
	if len(sealed) < aead.NonceSize() {
		return nil, fmt.Errorf("proxy: sealed metadata too short")
	}
	plain, err := aead.Open(nil, sealed[:aead.NonceSize()], sealed[aead.NonceSize():], nil)
	if err != nil {
		return nil, fmt.Errorf("proxy: unsealing metadata (wrong key file for this data dir?): %w", err)
	}
	return plain, nil
}

//
// Building the blob
//

// sealedMetaLocked serializes and seals the current metadata. Callers hold
// p.mu (read suffices: the fields read under it only mutate under the
// write lock; per-column volatile fields are read under cm.mu). Returns
// nil for a non-persistent proxy.
func (p *Proxy) sealedMetaLocked() ([]byte, error) {
	if !p.persistent() {
		return nil, nil
	}
	ms := metaState{Version: metaVersion, NTab: p.nTab}
	names := make([]string, 0, len(p.tables))
	for n := range p.tables {
		names = append(names, n)
	}
	sort.Strings(names) // deterministic blobs (helps tests and diffing)
	for _, name := range names {
		tm := p.tables[name]
		mt := metaTable{Logical: tm.Logical, Anon: tm.Anon}
		for _, sf := range tm.SpeaksFor {
			msf := metaSpeaksFor{
				AColumn: sf.AColumn, AConst: sf.AConst, AType: sf.AType,
				BColumn: sf.BColumn, BType: sf.BType,
			}
			if sf.If != nil {
				msf.If = sf.If.String()
			}
			mt.SpeaksFor = append(mt.SpeaksFor, msf)
		}
		for _, cm := range tm.Cols {
			mc := metaColumn{
				Logical: cm.Logical, Anon: cm.Anon, Type: int(cm.Type),
				Plain: cm.Plain, MinEnc: string(cm.MinEnc), EncFor: cm.EncFor,
				Primary:    cm.Primary,
				UsedSearch: cm.UsedSearch, UsedSum: cm.UsedSum, NeedsPlaintext: cm.NeedsPlaintext,
				WantIndex: cm.wantIndex, WantUnique: cm.wantUnique, WantUsing: cm.wantUsing,
				IdxEq: cm.idxEq, IdxJadj: cm.idxJadj, IdxOrd: cm.idxOrd,
				JoinRefT: cm.joinRefT, JoinRefC: cm.joinRefC,
			}
			if len(cm.Onions) > 0 {
				mc.Onions = make(map[string]metaOnion, len(cm.Onions))
				for o, st := range cm.Onions {
					stack := make([]string, len(st.Stack))
					for i, l := range st.Stack {
						stack[i] = string(l)
					}
					mc.Onions[string(o)] = metaOnion{Stack: stack, Cur: st.Cur, Deferred: st.Deferred}
				}
			}
			cm.mu.Lock()
			for o, s := range cm.Stale {
				if s {
					mc.Stale = append(mc.Stale, string(o))
				}
			}
			mc.OpeSharedLabel = cm.opeSharedLabel
			cm.mu.Unlock()
			// Walk to the group root without path compression: builders
			// may run under the read lock.
			root := cm
			for root.joinGroup != root {
				root = root.joinGroup
			}
			mc.JoinRootT, mc.JoinRootC = root.Table.Logical, root.Logical
			mt.Cols = append(mt.Cols, mc)
		}
		ms.Tables = append(ms.Tables, mt)
	}
	plain, err := json.Marshal(ms)
	if err != nil {
		return nil, err
	}
	return p.sealMeta(plain)
}

// persistMetaLocked durably commits the current metadata in its own WAL
// batch. Used for transitions with no accompanying server statement (usage
// flags, OPE-JOIN declarations, resync and materialisation completion,
// group-root moves).
// Callers hold p.mu.
func (p *Proxy) persistMetaLocked() error {
	if !p.persistent() {
		return nil
	}
	p.metaMu.Lock()
	defer p.metaMu.Unlock()
	sealed, err := p.sealedMetaLocked()
	if err != nil {
		return err
	}
	return p.db.SetMeta(sealed)
}

//
// Restoring
//

// restoreState rebuilds p.tables from a sealed blob recovered by the DBMS.
func (p *Proxy) restoreState(sealed []byte) error {
	plain, err := p.openSealedMeta(sealed)
	if err != nil {
		return err
	}
	var ms metaState
	if err := json.Unmarshal(plain, &ms); err != nil {
		return fmt.Errorf("proxy: decoding metadata: %w", err)
	}
	if ms.Version < 1 || ms.Version > metaVersion {
		return fmt.Errorf("proxy: metadata version %d not supported", ms.Version)
	}
	p.nTab = ms.NTab

	for _, mt := range ms.Tables {
		if p.db.Table(mt.Anon) == nil {
			return fmt.Errorf("proxy: metadata names table %s (%s) but the DBMS has no such table — data dir mismatch?",
				mt.Logical, mt.Anon)
		}
		tm := &TableMeta{
			Logical: mt.Logical,
			Anon:    mt.Anon,
			byName:  make(map[string]*ColumnMeta),
		}
		tm.nextRid.Store(1)
		for _, msf := range mt.SpeaksFor {
			sf := sqlparser.SpeaksForAnnot{
				AColumn: msf.AColumn, AConst: msf.AConst, AType: msf.AType,
				BColumn: msf.BColumn, BType: msf.BType,
			}
			if msf.If != "" {
				pred, err := parsePredicate(msf.If)
				if err != nil {
					return fmt.Errorf("proxy: restoring SPEAKS FOR predicate %q: %w", msf.If, err)
				}
				sf.If = pred
			}
			tm.SpeaksFor = append(tm.SpeaksFor, sf)
		}
		for _, mc := range mt.Cols {
			cm := &ColumnMeta{
				Logical: mc.Logical, Anon: mc.Anon,
				Type: sqlparser.ColType(mc.Type), Plain: mc.Plain,
				MinEnc: onion.Layer(mc.MinEnc), EncFor: mc.EncFor, Primary: mc.Primary,
				Table:      tm,
				Onions:     make(map[onion.Onion]*onion.State),
				Stale:      make(map[onion.Onion]bool),
				UsedSearch: mc.UsedSearch, UsedSum: mc.UsedSum, NeedsPlaintext: mc.NeedsPlaintext,
				joinRefT: mc.JoinRefT, joinRefC: mc.JoinRefC,
				opeSharedLabel: mc.OpeSharedLabel,
				wantIndex:      mc.WantIndex, wantUnique: mc.WantUnique, wantUsing: mc.WantUsing,
				idxEq: mc.IdxEq, idxJadj: mc.IdxJadj, idxOrd: mc.IdxOrd,
			}
			cm.joinGroup = cm
			if cm.joinRefT == "" {
				cm.joinRefT, cm.joinRefC = tm.Logical, cm.Logical
			}
			if cm.opeSharedLabel != "" {
				cm.opeShared = p.mk.DeriveLabel(cm.opeSharedLabel)
			}
			for o, mo := range mc.Onions {
				stack := make([]onion.Layer, len(mo.Stack))
				for i, l := range mo.Stack {
					stack[i] = onion.Layer(l)
				}
				if mo.Cur < 0 || mo.Cur >= len(stack) {
					return fmt.Errorf("proxy: column %s.%s onion %s: layer index %d out of range",
						mt.Logical, mc.Logical, o, mo.Cur)
				}
				cm.Onions[onion.Onion(o)] = &onion.State{Stack: stack, Cur: mo.Cur, Deferred: mo.Deferred}
			}
			for _, o := range mc.Stale {
				cm.Stale[onion.Onion(o)] = true
			}
			tm.Cols = append(tm.Cols, cm)
			tm.byName[cm.Logical] = cm
		}
		p.tables[tm.Logical] = tm
	}

	// Second pass: join groups and effective join keys. Columns whose
	// effective key is the same reference share one *joinadj.Key, so the
	// steady-state pointer comparison in adjNeeded stays meaningful.
	derived := make(map[string]*joinadj.Key)
	lookup := func(t, c string) *ColumnMeta {
		if tm := p.tables[t]; tm != nil {
			return tm.Col(c)
		}
		return nil
	}
	for _, mt := range ms.Tables {
		tm := p.tables[mt.Logical]
		for _, mc := range mt.Cols {
			cm := tm.Col(mc.Logical)
			if mc.JoinRootT != "" {
				if root := lookup(mc.JoinRootT, mc.JoinRootC); root != nil {
					cm.joinGroup = root
				}
			}
			ref := lookup(cm.joinRefT, cm.joinRefC)
			if ref == nil {
				return fmt.Errorf("proxy: column %s.%s join key references missing column %s.%s",
					tm.Logical, cm.Logical, cm.joinRefT, cm.joinRefC)
			}
			if ref != cm || cm.HasOnion(onion.JAdj) {
				key := ref.Table.Logical + "\x00" + ref.Logical
				jk := derived[key]
				if jk == nil {
					jk = joinadj.DeriveKey(p.mk.Derive(ref.Table.Logical, ref.Logical,
						string(onion.JAdj), string(onion.JOIN)))
					derived[key] = jk
				}
				cm.joinKey = jk
			}
		}
	}

	// nextRid: recomputed from the durable data rather than persisted per
	// insert. MAX(rid) is served from the primary-key index endpoint.
	for _, tm := range p.tables {
		res, err := p.db.ExecSQL("SELECT MAX(rid) FROM " + tm.Anon)
		if err != nil {
			return fmt.Errorf("proxy: recovering row-id counter for %s: %w", tm.Logical, err)
		}
		if len(res.Rows) == 1 && !res.Rows[0][0].IsNull() {
			// Stored atomically: inserts bump the counter concurrently,
			// and restore can overlap a warm-up query on another
			// connection.
			tm.nextRid.Store(res.Rows[0][0].I + 1)
		}
	}
	return nil
}

// parsePredicate re-parses a rendered WHERE-style predicate.
func parsePredicate(s string) (sqlparser.Expr, error) {
	st, err := sqlparser.Parse("SELECT * FROM t WHERE " + s)
	if err != nil {
		return nil, err
	}
	sel, ok := st.(*sqlparser.SelectStmt)
	if !ok || sel.Where == nil {
		return nil, fmt.Errorf("predicate did not parse")
	}
	return sel.Where, nil
}
