// Per-connection sessions and concurrent transactions.
//
// The seed serialized every transaction behind one global mutex: BEGIN
// latched the whole database, matching the paper's single-writer evaluation
// but not production traffic. A Session is the unit of concurrency instead:
// the server opens one per TCP connection, and each session may hold its own
// open transaction.
//
// A transaction never mutates the shared tables while open. Its writes
// accumulate in its write set (write.go: per-table replacements and
// tombstones for committed slots, plus pending inserts), which the session's
// own statements read in place — read your writes — while every other
// session keeps reading committed state. Reads outside the write set see
// the committed tables as they are at each statement, including commits
// other sessions made after BEGIN: there is no snapshot taken at BEGIN.
// Write-write conflicts are detected eagerly, first writer wins: the first
// transaction to write a row slot owns it until commit or rollback, and any
// other transaction (or autocommit statement) that tries to write the same
// slot fails with a WriteConflictError instead of blocking. COMMIT applies
// the write set to the shared tables atomically under a short critical section
// (the database write lock), re-validating UNIQUE constraints against the
// then-current state — first committer wins for constraint conflicts — and
// then makes the batch durable through the WAL's group commit, off the
// database lock, so concurrent committers share fsyncs.
//
// What this buys and what it gives up: committed effects of row-level
// read-modify-write statements (UPDATE t SET x = x + 1 WHERE ...) are
// serializable, because the expression is evaluated against committed state
// at the moment the slot lock is taken and the slot cannot change
// underneath the owner. Plain reads take no locks, so a transaction that
// SELECTs a value and writes it back in a later statement can still lose a
// concurrent update — the stress tests (and the documented contract) use
// single-statement RMW for contended rows. UNIQUE violations inside a
// transaction surface at COMMIT, which then rolls the transaction back as a
// unit. A client's DDL never rides its transaction: it executes and becomes
// durable immediately, as in the seed. Only a statement list (Stage, behind
// DB.ExecAutonomousListWithMeta and a sharded store's commit) stages DDL,
// to apply at its COMMIT after its row writes.
package sqldb

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/sqlparser"
)

// WriteConflictError reports that a statement tried to write a row slot
// owned by another open transaction (first writer wins). The losing side
// should ROLLBACK and retry; nothing of the failing statement was applied.
type WriteConflictError struct {
	Table string
	Slot  int
}

// Error implements the error interface.
func (e *WriteConflictError) Error() string {
	return fmt.Sprintf("sqldb: write conflict: row %d of %s is locked by a concurrent transaction", e.Slot, e.Table)
}

// Session is one client's execution context: an optional open transaction
// plus the statement entry points. Statements from different sessions run
// concurrently (reads in parallel, writes serialized by the database lock
// but overlapping in the WAL's group commit); statements within one session
// execute in order. A Session must be Closed when its connection goes away:
// Close rolls back any open transaction, releasing its row locks.
type Session struct {
	db *DB

	mu     sync.Mutex // guards txn and closed
	txn    *Txn
	closed bool
}

// NewSession creates an independent session on db.
func (db *DB) NewSession() *Session {
	return &Session{db: db}
}

// Close releases the session, rolling back any open transaction. Further
// statements on the session fail. Safe to call more than once.
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.txn != nil {
		s.rollbackLocked()
	}
	return nil
}

// InTxn reports whether the session has an open transaction.
func (s *Session) InTxn() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.txn != nil
}

// TxnMetaPending reports whether the open transaction carries a metadata
// blob that will commit with it. The proxy uses this to re-seal fresh
// metadata at COMMIT time (see the CommitStmt case in exec).
func (s *Session) TxnMetaPending() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.txn != nil && s.txn.meta != nil
}

// ExecSQL parses and executes one statement on this session.
func (s *Session) ExecSQL(sql string, params ...Value) (*Result, error) {
	st, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	return s.Exec(st, params...)
}

// Exec executes a parsed statement on this session.
func (s *Session) Exec(st sqlparser.Statement, params ...Value) (*Result, error) {
	return s.exec(st, nil, params)
}

// ExecWithMeta executes a write statement with an attached metadata blob
// (see DB.ExecWithMeta). Inside an open transaction the blob commits with
// the transaction's WAL batch — durable iff the transaction's writes are.
func (s *Session) ExecWithMeta(st sqlparser.Statement, meta []byte, params ...Value) (*Result, error) {
	return s.exec(st, meta, params)
}

func (s *Session) exec(st sqlparser.Statement, meta []byte, params []Value) (*Result, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, fmt.Errorf("sqldb: session is closed")
	}
	s.mu.Unlock()
	switch st.(type) {
	case *sqlparser.BeginStmt:
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.closed {
			return nil, fmt.Errorf("sqldb: session is closed")
		}
		if s.txn != nil {
			return nil, fmt.Errorf("sqldb: BEGIN inside an open transaction")
		}
		s.txn = &Txn{db: s.db}
		s.db.registerTxn(s.txn)
		return &Result{}, nil
	case *sqlparser.CommitStmt:
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.txn != nil && meta != nil {
			// A blob passed with COMMIT supersedes any statement-time
			// blob: the proxy re-seals its *current* metadata here, so
			// the committed blob can never be older than one an onion
			// adjustment committed while this transaction was open.
			s.txn.meta = append([]byte(nil), meta...)
		}
		return s.commitLocked()
	case *sqlparser.RollbackStmt:
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.txn == nil {
			return nil, fmt.Errorf("sqldb: ROLLBACK outside a transaction")
		}
		s.rollbackLocked()
		return &Result{}, nil
	case *sqlparser.SelectStmt:
		// Without a transaction the read runs off the session's mutex, so
		// reads on a shared session (DB.Exec) stay concurrent.
		s.mu.Lock()
		if s.txn == nil {
			s.mu.Unlock()
			return s.db.execStateless(st, meta, params)
		}
		defer s.mu.Unlock()
		return s.txn.exec(st, params)
	case *sqlparser.InsertStmt, *sqlparser.UpdateStmt, *sqlparser.DeleteStmt:
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.txn == nil {
			return s.db.execStateless(st, meta, params)
		}
		res, err := s.txn.exec(st, params)
		s.txn.attachMeta(meta, err)
		return res, err
	default:
		// DDL and everything else: never part of the client's
		// transaction, executes and becomes durable immediately (as in
		// the seed, where DDL was not undo-logged and survived ROLLBACK).
		return s.db.execStateless(st, meta, params)
	}
}

// Stage runs one statement of a statement list in the session's open
// transaction. An INSERT, UPDATE or DELETE stages as Exec stages it. A
// CREATE TABLE, CREATE INDEX or DROP TABLE is checked now, against the
// tables as the transaction sees them (a UNIQUE index over its own write
// set), and applies at COMMIT after the transaction's row writes, in the
// order staged and in the same WAL frame. Anything else is refused.
func (s *Session) Stage(st sqlparser.Statement, params ...Value) (*Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.txn == nil {
		return nil, fmt.Errorf("sqldb: Stage outside a transaction")
	}
	db := s.db
	defer db.trackBusy(time.Now())
	db.mu.RLock()
	defer db.mu.RUnlock()
	return s.txn.stage(st, params)
}

//
// Transaction state
//

// Txn is one transaction: its write set, layered over the shared tables,
// and the DDL a statement list staged. Nothing in it is visible to other
// sessions until commit applies it under the database write lock. An
// autocommit statement is a oneShot Txn that stages and applies one
// statement under that lock (write.go).
type Txn struct {
	db      *DB
	tables  []*txnTable           // one per table written, in first-write order
	ddl     []sqlparser.Statement // staged DDL, applied after the rows
	meta    []byte                // latest ExecWithMeta blob; commits with the batch
	decides uint64                // the id of the write this commit decides (CommitDeciding)
	oneShot bool
}

// attachMeta records a statement's metadata blob for commit — only when
// the statement actually applied. A failed statement must not leave its
// blob behind: the metadata describes a state change that never happened.
func (txn *Txn) attachMeta(meta []byte, err error) {
	if err == nil && meta != nil {
		txn.meta = append([]byte(nil), meta...)
	}
}

// exec runs one SELECT, INSERT, UPDATE or DELETE of the open transaction
// under db.mu's read side: a read sees the tables through the write set
// (read your writes), a write stages into it. The read side suffices for
// staging: slot locks live in the striped lock table, which has its own
// synchronization, and only commit changes the shared tables. Callers hold
// the session's mutex, which orders this against the session's other
// statements.
func (txn *Txn) exec(st sqlparser.Statement, params []Value) (*Result, error) {
	db := txn.db
	defer db.trackBusy(time.Now())
	db.mu.RLock()
	defer db.mu.RUnlock()
	if s, ok := st.(*sqlparser.SelectStmt); ok {
		return db.execSelect(txn, s, nil, params)
	}
	return txn.stage(st, params)
}

//
// Commit / rollback
//

// commitLocked applies the transaction under the database write lock, then
// makes its WAL batch durable via group commit off the lock (DB.commit).
// Either way the transaction ends: on a constraint violation during apply
// it is rolled back in full and the error says so. Callers hold s.mu.
func (s *Session) commitLocked() (*Result, error) {
	txn := s.txn
	if txn == nil {
		return nil, fmt.Errorf("sqldb: COMMIT outside a transaction")
	}
	s.txn = nil
	db := s.db
	defer db.trackBusy(time.Now())
	err := db.commit(txn.meta, txn.applyLocked, txn.releaseLocked)
	switch err.(type) {
	case nil:
		return &Result{}, nil
	case *DurabilityError:
		// The in-memory state committed; only durability failed.
		return &Result{}, err
	case *PageFaultError:
		return nil, err
	}
	return nil, fmt.Errorf("sqldb: COMMIT failed, transaction rolled back: %w", err)
}

// rollbackLocked discards the transaction and releases its slot locks.
// Callers hold s.mu.
func (s *Session) rollbackLocked() {
	txn := s.txn
	s.txn = nil
	db := s.db
	db.mu.Lock()
	txn.releaseLocked()
	db.mu.Unlock()
}

// releaseLocked frees the transaction's slot locks and deregisters it.
// Callers hold db.mu.
func (txn *Txn) releaseLocked() {
	for _, tt := range txn.tables {
		for slot := range tt.mods {
			txn.db.locks.unlock(tt.t, slot, txn)
		}
	}
	delete(txn.db.openTxns, txn)
}
