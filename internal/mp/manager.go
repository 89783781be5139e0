package mp

import (
	"crypto/ecdh"
	cryptorand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"repro/internal/crypto/prf"
	"repro/internal/proxy"
	"repro/internal/sqldb"
	"repro/internal/sqlparser"
	"repro/internal/store"
)

// Predicate is an application-registered SQL predicate usable in SPEAKS FOR
// ... IF annotations (like HotCRP's NoConflict, Figure 6). It receives the
// argument values from the row being granted.
type Predicate func(args []sqldb.Value) (bool, error)

type pid struct {
	ptype string
	name  string
}

func (p pid) String() string { return p.ptype + ":" + p.name }

// Manager layers CryptDB's multi-principal key chaining over a Proxy. All
// application SQL should flow through Manager.Execute so that logins,
// logouts and SPEAKS FOR-bearing writes are intercepted (§4.2).
type Manager struct {
	mu sync.Mutex

	p  *proxy.Proxy
	db store.Engine

	princTypes map[string]bool // declared types
	external   map[string]bool // types declared EXTERNAL

	// online holds the symmetric keys of logged-in external principals —
	// the only secret state; erased at logout so a later compromise
	// cannot decrypt their data (§4.2).
	online map[pid][]byte

	// keyCache memoizes keys reachable from currently logged-in users —
	// the §4.2 optimization ("when a user logs in, CryptDB's proxy loads
	// the keys of some principals to which the user has access").
	// Cleared wholesale on logout or revocation to preserve the
	// key-erasure guarantee.
	keyCache map[pid][]byte

	predicates map[string]Predicate

	// annotations by table, plus reverse references for A = "T2.col"
	// rules.
	speaksFor map[string][]sqlparser.SpeaksForAnnot
	reverse   map[string][]reverseRule // T2 name -> rules living on other tables
}

type reverseRule struct {
	table string // the annotated table (e.g. PaperReview)
	annot sqlparser.SpeaksForAnnot
}

// ErrKeyTablesExist is returned by New when the engine already holds the
// key tables: the PRINCTYPE and SPEAKS FOR annotations live only in a
// Manager's memory, so reopening them would silently drop access rules.
var ErrKeyTablesExist = errors.New("mp: key tables already exist; multi-principal state does not survive a restart")

// New creates a Manager over a proxy, creates the key tables in its
// engine, and installs itself as the proxy's PrincipalCrypto hook.
func New(p *proxy.Proxy) (*Manager, error) {
	m := &Manager{
		p:          p,
		db:         p.Engine(),
		princTypes: make(map[string]bool),
		external:   make(map[string]bool),
		online:     make(map[pid][]byte),
		keyCache:   make(map[pid][]byte),
		predicates: make(map[string]Predicate),
		speaksFor:  make(map[string][]sqlparser.SpeaksForAnnot),
		reverse:    make(map[string][]reverseRule),
	}
	if err := m.initTables(); err != nil {
		return nil, err
	}
	p.SetPrincipalCrypto(m)
	return m, nil
}

// RegisterPredicate installs a named predicate for SPEAKS FOR ... IF
// annotations.
func (m *Manager) RegisterPredicate(name string, fn Predicate) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.predicates[name] = fn
}

// initTables creates the server-side key tables of §4.2. They live beside
// the application's anonymized tables and contain only wrapped keys.
func (m *Manager) initTables() error {
	if m.db.Table("cryptdb_access_keys") != nil {
		return ErrKeyTablesExist
	}
	ddl := []string{
		"CREATE TABLE cryptdb_access_keys (grantee_type TEXT, grantee TEXT, target_type TEXT, target TEXT, asym INT, wrapped BLOB)",
		"CREATE TABLE cryptdb_public_keys (ptype TEXT, name TEXT, pub BLOB, wrapped_priv BLOB)",
		"CREATE TABLE cryptdb_external_keys (name TEXT, salt BLOB, wrapped BLOB)",
	}
	for _, q := range ddl {
		if _, err := m.db.ExecSQL(q); err != nil {
			return fmt.Errorf("mp: creating key tables: %w", err)
		}
	}
	for _, idx := range []string{
		"CREATE INDEX cak_target ON cryptdb_access_keys (target)",
		"CREATE INDEX cak_grantee ON cryptdb_access_keys (grantee)",
		"CREATE INDEX cpk_name ON cryptdb_public_keys (name)",
		"CREATE INDEX cek_name ON cryptdb_external_keys (name)",
	} {
		if _, err := m.db.ExecSQL(idx); err != nil {
			return fmt.Errorf("mp: indexing key tables: %w", err)
		}
	}
	return nil
}

//
// Principal lifecycle.
//

// ensurePrincipal returns the principal's symmetric key if it already
// exists and is resolvable, creating the principal (fresh random key +
// X25519 pair) if it does not exist. For existing-but-unreachable principals
// it returns only the public key.
func (m *Manager) ensurePrincipal(id pid) (sym []byte, pub *ecdh.PublicKey, err error) {
	res, err := m.db.ExecSQL("SELECT pub FROM cryptdb_public_keys WHERE ptype = ? AND name = ?",
		sqldb.Text(id.ptype), sqldb.Text(id.name))
	if err != nil {
		return nil, nil, err
	}
	if len(res.Rows) > 0 {
		pub, err := ecdh.X25519().NewPublicKey(res.Rows[0][0].B)
		if err != nil {
			return nil, nil, err
		}
		sym, _ := m.resolveKey(id) // may fail: offline principal
		return sym, pub, nil
	}

	// Create the principal: random symmetric key, X25519 pair, private
	// key wrapped under the symmetric key.
	sym, err = newSymKey()
	if err != nil {
		return nil, nil, err
	}
	priv, err := ecdh.X25519().GenerateKey(cryptorand.Reader)
	if err != nil {
		return nil, nil, err
	}
	wrappedPriv, err := wrapSym(sym, priv.Bytes())
	if err != nil {
		return nil, nil, err
	}
	_, err = m.db.ExecSQL("INSERT INTO cryptdb_public_keys (ptype, name, pub, wrapped_priv) VALUES (?, ?, ?, ?)",
		sqldb.Text(id.ptype), sqldb.Text(id.name), sqldb.Blob(priv.PublicKey().Bytes()), sqldb.Blob(wrappedPriv))
	if err != nil {
		return nil, nil, err
	}
	return sym, priv.PublicKey(), nil
}

// Login gives the proxy a user's password, unlocking the external
// principal's key (creating it on first login). Applications normally call
// this by INSERTing into cryptdb_active; this is the direct API.
func (m *Manager) Login(username, password string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.login(username, password)
}

func (m *Manager) login(username, password string) error {
	extType := m.externalType()
	if extType == "" {
		return fmt.Errorf("mp: no EXTERNAL principal type declared")
	}
	id := pid{ptype: extType, name: username}

	res, err := m.db.ExecSQL("SELECT salt, wrapped FROM cryptdb_external_keys WHERE name = ?", sqldb.Text(username))
	if err != nil {
		return err
	}
	if len(res.Rows) > 0 {
		salt, wrapped := res.Rows[0][0].B, res.Rows[0][1].B
		sym, err := unwrapSym(kdf(password, salt), wrapped)
		if err != nil {
			return fmt.Errorf("mp: wrong password for %s", username)
		}
		m.online[id] = sym
		return nil
	}

	// First login: create the external principal and store its key
	// wrapped under the password (§4.2 external_keys).
	sym, _, err := m.ensurePrincipal(id)
	if err != nil {
		return err
	}
	if sym == nil {
		return fmt.Errorf("mp: principal %s exists but is locked", id)
	}
	salt := make([]byte, 16)
	if _, err := cryptorand.Read(salt); err != nil {
		return err
	}
	wrapped, err := wrapSym(kdf(password, salt), sym)
	if err != nil {
		return err
	}
	if _, err := m.db.ExecSQL("INSERT INTO cryptdb_external_keys (name, salt, wrapped) VALUES (?, ?, ?)",
		sqldb.Text(username), sqldb.Blob(salt), sqldb.Blob(wrapped)); err != nil {
		return err
	}
	m.online[id] = sym
	return nil
}

// ChangePassword re-wraps an external principal's key under a new password
// (§4.2: the external_keys indirection "allows a user to change her
// password without changing the key of the principal" — no data is
// re-encrypted).
func (m *Manager) ChangePassword(username, oldPassword, newPassword string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	res, err := m.db.ExecSQL("SELECT salt, wrapped FROM cryptdb_external_keys WHERE name = ?", sqldb.Text(username))
	if err != nil {
		return err
	}
	if len(res.Rows) == 0 {
		return fmt.Errorf("mp: no external principal %s", username)
	}
	sym, err := unwrapSym(kdf(oldPassword, res.Rows[0][0].B), res.Rows[0][1].B)
	if err != nil {
		return fmt.Errorf("mp: wrong password for %s", username)
	}
	salt := make([]byte, 16)
	if _, err := cryptorand.Read(salt); err != nil {
		return err
	}
	wrapped, err := wrapSym(kdf(newPassword, salt), sym)
	if err != nil {
		return err
	}
	_, err = m.db.ExecSQL("UPDATE cryptdb_external_keys SET salt = ?, wrapped = ? WHERE name = ?",
		sqldb.Blob(salt), sqldb.Blob(wrapped), sqldb.Text(username))
	return err
}

// Logout erases the user's key material from the proxy — including every
// cached key that might have been derived through her chain — so a later
// compromise cannot decrypt her data (§4.2).
func (m *Manager) Logout(username string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ext := m.externalType()
	for k := range m.online {
		if k.ptype == ext && k.name == username {
			delete(m.online, k)
		}
	}
	m.keyCache = make(map[pid][]byte)
}

// OnlineUsers lists currently logged-in external principals.
func (m *Manager) OnlineUsers() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []string
	for k := range m.online {
		out = append(out, k.name)
	}
	return out
}

func (m *Manager) externalType() string {
	for t := range m.external {
		return t
	}
	return ""
}

//
// Key chain resolution (§4.2): follow access_keys edges from the keys of
// logged-in users until the target principal's key is found.
//

func (m *Manager) resolveKey(target pid) ([]byte, error) {
	if k, ok := m.keyCache[target]; ok {
		return k, nil
	}
	known := make(map[pid][]byte, len(m.online))
	for k, v := range m.online {
		known[k] = v
	}
	for k, v := range m.keyCache {
		known[k] = v
	}
	if k, ok := known[target]; ok {
		return k, nil
	}

	// Iteratively expand the closure of reachable keys. Each pass scans
	// the access_keys rows whose grantee we can already decrypt.
	for {
		progress := false
		for grantee, gkey := range known {
			res, err := m.db.ExecSQL(
				"SELECT target_type, target, asym, wrapped FROM cryptdb_access_keys WHERE grantee = ? AND grantee_type = ?",
				sqldb.Text(grantee.name), sqldb.Text(grantee.ptype))
			if err != nil {
				return nil, err
			}
			for _, row := range res.Rows {
				tgt := pid{ptype: row[0].S, name: row[1].S}
				if _, have := known[tgt]; have {
					continue
				}
				var key []byte
				if row[2].I == 1 {
					// Asymmetric wrap: need the grantee's X25519
					// private key, itself wrapped under the grantee's
					// sym key.
					priv, err := m.privateKey(grantee, gkey)
					if err != nil {
						continue
					}
					key, err = unwrapAsym(priv, row[3].B)
					if err != nil {
						continue
					}
					// Re-wrap symmetrically for future use (§4.2:
					// "re-encrypt it under her symmetric key").
					if rew, err := wrapSym(gkey, key); err == nil {
						_, _ = m.db.ExecSQL(
							"UPDATE cryptdb_access_keys SET asym = 0, wrapped = ? WHERE grantee = ? AND grantee_type = ? AND target = ? AND target_type = ?",
							sqldb.Blob(rew), sqldb.Text(grantee.name), sqldb.Text(grantee.ptype), sqldb.Text(tgt.name), sqldb.Text(tgt.ptype))
					}
				} else {
					var err error
					key, err = unwrapSym(gkey, row[3].B)
					if err != nil {
						continue
					}
				}
				known[tgt] = key
				progress = true
			}
		}
		if k, ok := known[target]; ok {
			// Remember everything reached along the way; all of it is
			// derivable from logged-in users' keys.
			for kk, vv := range known {
				m.keyCache[kk] = vv
			}
			return k, nil
		}
		if !progress {
			return nil, fmt.Errorf("mp: key of %s is not reachable from any logged-in user", target)
		}
	}
}

func (m *Manager) privateKey(id pid, sym []byte) (*ecdh.PrivateKey, error) {
	res, err := m.db.ExecSQL("SELECT wrapped_priv FROM cryptdb_public_keys WHERE ptype = ? AND name = ?",
		sqldb.Text(id.ptype), sqldb.Text(id.name))
	if err != nil {
		return nil, err
	}
	if len(res.Rows) == 0 {
		return nil, fmt.Errorf("mp: no principal %s", id)
	}
	raw, err := unwrapSym(sym, res.Rows[0][0].B)
	if err != nil {
		return nil, err
	}
	return ecdh.X25519().NewPrivateKey(raw)
}

// grant records that grantee speaks for target: target's key is wrapped
// under grantee's key (symmetric when grantee's key chain is currently
// resolvable, public-key otherwise) and stored server-side.
func (m *Manager) grant(grantee, target pid) error {
	// The target's key must be obtainable: resolvable via the current
	// session, or the target is brand new (§4.2).
	tkey, _, err := m.ensurePrincipal(target)
	if err != nil {
		return err
	}
	if tkey == nil {
		return fmt.Errorf("mp: cannot delegate %s: its key is not accessible in this session", target)
	}

	// Skip duplicate grants.
	res, err := m.db.ExecSQL(
		"SELECT COUNT(*) FROM cryptdb_access_keys WHERE grantee = ? AND grantee_type = ? AND target = ? AND target_type = ?",
		sqldb.Text(grantee.name), sqldb.Text(grantee.ptype), sqldb.Text(target.name), sqldb.Text(target.ptype))
	if err != nil {
		return err
	}
	if res.Rows[0][0].I > 0 {
		return nil
	}

	gkey, gpub, err := m.ensurePrincipal(grantee)
	if err != nil {
		return err
	}
	var wrapped []byte
	asym := int64(0)
	if gkey != nil {
		wrapped, err = wrapSym(gkey, tkey)
	} else {
		// Grantee offline: wrap under its public key (§4.2).
		asym = 1
		wrapped, err = wrapAsym(gpub, tkey)
	}
	if err != nil {
		return err
	}
	_, err = m.db.ExecSQL("INSERT INTO cryptdb_access_keys (grantee_type, grantee, target_type, target, asym, wrapped) VALUES (?, ?, ?, ?, ?, ?)",
		sqldb.Text(grantee.ptype), sqldb.Text(grantee.name), sqldb.Text(target.ptype), sqldb.Text(target.name),
		sqldb.Int(asym), sqldb.Blob(wrapped))
	return err
}

// revoke removes a speaks-for edge (§4.2: "If a SPEAKS FOR relation is
// removed, CryptDB revokes access by removing the corresponding row").
func (m *Manager) revoke(grantee, target pid) error {
	m.keyCache = make(map[pid][]byte)
	_, err := m.db.ExecSQL(
		"DELETE FROM cryptdb_access_keys WHERE grantee = ? AND grantee_type = ? AND target = ? AND target_type = ?",
		sqldb.Text(grantee.name), sqldb.Text(grantee.ptype), sqldb.Text(target.name), sqldb.Text(target.ptype))
	return err
}

//
// proxy.PrincipalCrypto implementation: per-principal data encryption for
// ENC FOR columns.
//

// EncryptFor encrypts v for (ptype, pname) with a column-specific key
// derived from the principal's key.
func (m *Manager) EncryptFor(ptype, pname, table, col string, v sqldb.Value) (sqldb.Value, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if v.IsNull() {
		return sqldb.Null(), nil
	}
	key, _, err := m.ensurePrincipal(pid{ptype: ptype, name: pname})
	if err != nil {
		return sqldb.Value{}, err
	}
	if key == nil {
		return sqldb.Value{}, fmt.Errorf("mp: cannot encrypt for %s:%s — key not accessible", ptype, pname)
	}
	blob, err := wrapSym(dataKey(key, table, col), encodeValue(v))
	if err != nil {
		return sqldb.Value{}, err
	}
	return sqldb.Blob(blob), nil
}

// DecryptFor decrypts an ENC FOR value, succeeding only when the owning
// principal's key is reachable from a logged-in user.
func (m *Manager) DecryptFor(ptype, pname, table, col string, v sqldb.Value) (sqldb.Value, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if v.IsNull() {
		return sqldb.Null(), nil
	}
	key, err := m.resolveKey(pid{ptype: ptype, name: pname})
	if err != nil {
		return sqldb.Value{}, err
	}
	raw, err := unwrapSym(dataKey(key, table, col), v.B)
	if err != nil {
		return sqldb.Value{}, err
	}
	return decodeValue(raw)
}

func dataKey(principalKey []byte, table, col string) []byte {
	return prf.Sum(principalKey, []byte("data"), []byte(table), []byte(col))
}

func encodeValue(v sqldb.Value) []byte {
	switch v.Kind {
	case sqldb.KindInt:
		out := make([]byte, 9)
		out[0] = 1
		binary.BigEndian.PutUint64(out[1:], uint64(v.I))
		return out
	case sqldb.KindText:
		return append([]byte{2}, v.S...)
	case sqldb.KindBlob:
		return append([]byte{3}, v.B...)
	}
	return []byte{0}
}

func decodeValue(b []byte) (sqldb.Value, error) {
	if len(b) == 0 {
		return sqldb.Value{}, fmt.Errorf("mp: empty value encoding")
	}
	switch b[0] {
	case 0:
		return sqldb.Null(), nil
	case 1:
		if len(b) != 9 {
			return sqldb.Value{}, fmt.Errorf("mp: bad int encoding")
		}
		return sqldb.Int(int64(binary.BigEndian.Uint64(b[1:]))), nil
	case 2:
		return sqldb.Text(string(b[1:])), nil
	case 3:
		return sqldb.Blob(b[1:]), nil
	}
	return sqldb.Value{}, fmt.Errorf("mp: bad value tag %d", b[0])
}
