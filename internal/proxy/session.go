// Per-connection proxy sessions. The paper's proxy sits between many
// application threads and the DBMS; a Session is the proxy-side handle for
// one of those threads (one TCP connection in cryptdb-server). Each session
// owns a DBMS session, so BEGIN/COMMIT/ROLLBACK scope to the connection
// that issued them: plain reads and writes from different sessions proceed
// concurrently, while onion adjustments and DDL — which mutate shared onion
// state — remain globally serialized under the proxy's write lock and
// refuse to run while an open transaction has written the affected table
// (the transaction's buffered ciphertexts were produced at the old layer;
// re-encrypting under it would desynchronize data from metadata).
package proxy

import (
	"fmt"
	"sync"

	"repro/internal/sqldb"
	"repro/internal/sqlparser"
	"repro/internal/store"
)

// Session is one client's execution context on the proxy. Create with
// Proxy.NewSession, release with Close (which rolls back any open
// transaction — a client that disconnects mid-transaction must not leave
// row locks behind). The zero value is not usable.
type Session struct {
	p  *Proxy
	db store.Conn

	// tmu guards touched: the logical tables this session's open
	// transaction has written. Onion adjustments consult it (under the
	// proxy write lock) to refuse re-encrypting a table whose buffered
	// rows were encrypted at the current layer.
	tmu     sync.Mutex
	touched map[string]bool
}

// NewSession opens an independent session. The session satisfies
// workload.Executor.
func (p *Proxy) NewSession() *Session {
	s := &Session{p: p, db: p.db.NewConn(), touched: make(map[string]bool)}
	p.sessMu.Lock()
	p.sessions[s] = struct{}{}
	p.sessMu.Unlock()
	return s
}

// Close rolls back any open transaction and releases the session. Safe to
// call more than once.
func (s *Session) Close() error {
	s.p.sessMu.Lock()
	delete(s.p.sessions, s)
	s.p.sessMu.Unlock()
	s.resetTouched()
	return s.db.Close()
}

// Execute parses and runs one logical SQL statement on this session (see
// Proxy.Execute for the pipeline description).
func (s *Session) Execute(sql string, params ...sqldb.Value) (*sqldb.Result, error) {
	st, err := s.p.parse(sql)
	if err != nil {
		return nil, err
	}
	return s.ExecuteStmt(st, params...)
}

// markTouched records a write against a logical table while a transaction
// is open on this session.
func (s *Session) markTouched(logical string) {
	if !s.db.InTxn() {
		return
	}
	s.tmu.Lock()
	s.touched[logical] = true
	s.tmu.Unlock()
}

func (s *Session) resetTouched() {
	s.tmu.Lock()
	for k := range s.touched {
		delete(s.touched, k)
	}
	s.tmu.Unlock()
}

// touchedInTxn reports whether this session's open transaction has written
// the logical table.
func (s *Session) touchedInTxn(logical string) bool {
	s.tmu.Lock()
	t := s.touched[logical]
	s.tmu.Unlock()
	return t && s.db.InTxn()
}

// adjustBlocked refuses an onion adjustment (or resync) on a table that an
// open transaction has written: the transaction's private buffer holds
// ciphertexts produced at the current layer, invisible to the server-side
// re-encryption UPDATE, so committing them after the adjustment would break
// the layer/ciphertext agreement. First writer wins, consistent with the
// DBMS's row-slot conflicts: the adjusting query fails fast with a
// retryable error instead of blocking (blocking could deadlock against the
// transaction's own next statement). Callers hold p.mu.
func (p *Proxy) adjustBlocked(tm *TableMeta) error {
	p.sessMu.Lock()
	defer p.sessMu.Unlock()
	for s := range p.sessions {
		if s.touchedInTxn(tm.Logical) {
			return fmt.Errorf("proxy: onion adjustment on %s conflicts with an open transaction; retry after it ends", tm.Logical)
		}
	}
	return nil
}

// defaultSession returns the proxy-wide implicit session behind
// Proxy.Execute, creating it on first use.
func (p *Proxy) defaultSession() *Session {
	p.defOnce.Do(func() { p.defSess = p.NewSession() })
	return p.defSess
}

// ExecuteStmt runs a pre-parsed statement on this session.
func (s *Session) ExecuteStmt(st sqlparser.Statement, params ...sqldb.Value) (*sqldb.Result, error) {
	p := s.p
	p.stats.queries.Add(1)
	if p.replica != nil {
		// A replica proxy serves reads only; anything else redirects to
		// the primary. Refresh the onion metadata first when the
		// replicated stream has applied a newer sealed blob, so queries
		// always see layer bookkeeping consistent with the ciphertexts
		// that have replayed locally.
		if _, ok := st.(*sqlparser.SelectStmt); !ok {
			return nil, p.replicaReadOnly()
		}
		if err := p.maybeReloadReplicaMeta(); err != nil {
			return nil, err
		}
	}
	switch x := st.(type) {
	case *sqlparser.CreateTableStmt:
		p.mu.Lock()
		defer p.mu.Unlock()
		return &sqldb.Result{}, p.createTable(x)
	case *sqlparser.CreateIndexStmt:
		p.mu.Lock()
		defer p.mu.Unlock()
		return &sqldb.Result{}, p.createIndex(x)
	case *sqlparser.DropTableStmt:
		p.mu.Lock()
		defer p.mu.Unlock()
		tm, ok := p.tables[x.Name]
		if !ok {
			return nil, fmt.Errorf("proxy: no table %s", x.Name)
		}
		delete(p.tables, x.Name)
		p.metaMu.Lock()
		defer p.metaMu.Unlock()
		sealed, err := p.sealedMetaLocked()
		if err != nil {
			p.tables[x.Name] = tm
			return nil, err
		}
		res, err := p.db.ExecWithMeta(&sqlparser.DropTableStmt{Name: tm.Anon}, sealed)
		if err != nil && !stmtApplied(err) {
			p.tables[x.Name] = tm
		}
		return res, err
	case *sqlparser.BeginStmt, *sqlparser.CommitStmt, *sqlparser.RollbackStmt:
		// Transactions pass through unchanged (§3.3), scoped to this
		// session's DBMS session.
		if p.opts.Training {
			return &sqldb.Result{}, nil
		}
		var res *sqldb.Result
		var err error
		if _, isCommit := st.(*sqlparser.CommitStmt); isCommit && p.persistent() && s.db.TxnMetaPending() {
			// The transaction buffered a sealed-metadata blob at
			// statement time (e.g. staleness flags from a HOM
			// increment). Re-seal the *current* metadata for the commit:
			// an onion adjustment may have committed a newer blob while
			// this transaction was open, and replaying the stale one at
			// a later WAL sequence would roll the recovered layer
			// bookkeeping back behind the ciphertexts. metaMu is held
			// across seal + commit so blob order on disk keeps matching
			// state order in memory.
			p.mu.RLock()
			p.metaMu.Lock()
			var sealed []byte
			sealed, err = p.sealedMetaLocked()
			if err == nil {
				//cryptdb:sink-ok COMMIT is a bare transaction delimiter; the sealed blob is AEAD-encrypted metadata
				res, err = s.db.ExecWithMeta(st, sealed)
			}
			p.metaMu.Unlock()
			p.mu.RUnlock()
		} else {
			//cryptdb:sink-ok BEGIN/COMMIT/ROLLBACK carry no literals (§3.3: transactions pass through unchanged)
			res, err = s.db.Exec(st)
		}
		if !s.db.InTxn() {
			s.resetTouched()
		}
		return res, err
	case *sqlparser.PrincTypeStmt:
		// Principal metadata is consumed by the multi-principal layer;
		// the single-principal proxy records nothing.
		return &sqldb.Result{}, nil
	case *sqlparser.SelectStmt:
		return s.execSelect(x, params)
	case *sqlparser.InsertStmt:
		return s.execInsert(x, params)
	case *sqlparser.UpdateStmt:
		return s.execUpdate(x, params)
	case *sqlparser.DeleteStmt:
		return s.execDelete(x, params)
	}
	return nil, fmt.Errorf("proxy: unsupported statement %T", st)
}
