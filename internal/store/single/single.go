// Package single adapts one embedded sqldb.DB to the store.Engine
// interface — the seed's topology. It adds no behavior: every method
// forwards to the underlying database, so a proxy over store/single is
// bit-for-bit the proxy over sqldb.DB it replaced.
package single

import (
	"repro/internal/sqldb"
	"repro/internal/sqlparser"
	"repro/internal/store"
)

// Engine wraps one sqldb.DB.
type Engine struct {
	db *sqldb.DB
}

// New adapts an existing database (in-memory or durable).
func New(db *sqldb.DB) *Engine { return &Engine{db: db} }

// Open opens a durable database rooted at dir and wraps it.
func Open(dir string, opts sqldb.DurabilityOptions) (*Engine, error) {
	db, err := sqldb.Open(dir, opts)
	if err != nil {
		return nil, err
	}
	return New(db), nil
}

// DB exposes the underlying database. Tests and benchmarks that inspect
// server-visible state unwrap through this; code above the store layer
// should not.
func (e *Engine) DB() *sqldb.DB { return e.db }

// NewConn opens an independent session on the database.
func (e *Engine) NewConn() store.Conn { return conn{s: e.db.NewSession()} }

// ExecSQL implements store.Executor.
func (e *Engine) ExecSQL(sql string, params ...sqldb.Value) (*sqldb.Result, error) {
	return e.db.ExecSQL(sql, params...)
}

// Exec implements store.Executor.
func (e *Engine) Exec(st sqlparser.Statement, params ...sqldb.Value) (*sqldb.Result, error) {
	return e.db.Exec(st, params...)
}

// ExecWithMeta implements store.Executor.
func (e *Engine) ExecWithMeta(st sqlparser.Statement, meta []byte, params ...sqldb.Value) (*sqldb.Result, error) {
	return e.db.ExecWithMeta(st, meta, params...)
}

// ExecAutonomous implements store.Engine.
func (e *Engine) ExecAutonomous(st sqlparser.Statement, params ...sqldb.Value) (*sqldb.Result, error) {
	return e.db.ExecAutonomous(st, params...)
}

// ExecAutonomousWithMeta implements store.Engine.
func (e *Engine) ExecAutonomousWithMeta(st sqlparser.Statement, meta []byte, params ...sqldb.Value) (*sqldb.Result, error) {
	return e.db.ExecAutonomousWithMeta(st, meta, params...)
}

// ExecAutonomousListWithMeta implements store.Engine.
func (e *Engine) ExecAutonomousListWithMeta(stmts []sqlparser.Statement, meta []byte) (*sqldb.Result, error) {
	return e.db.ExecAutonomousListWithMeta(stmts, meta)
}

// Meta implements store.Engine.
func (e *Engine) Meta() []byte { return e.db.Meta() }

// RegisterUDF implements store.Engine.
func (e *Engine) RegisterUDF(name string, fn sqldb.UDF) { e.db.RegisterUDF(name, fn) }

// RegisterAggUDF implements store.Engine.
func (e *Engine) RegisterAggUDF(name string, fn sqldb.AggUDF) { e.db.RegisterAggUDF(name, fn) }

// Table implements store.Engine.
func (e *Engine) Table(name string) store.TableInfo {
	if t := e.db.Table(name); t != nil {
		return t
	}
	return nil
}

// TableNames implements store.Engine.
func (e *Engine) TableNames() []string { return e.db.TableNames() }

// InTxn implements store.Engine.
func (e *Engine) InTxn() bool { return e.db.InTxn() }

// Shards implements store.Engine.
func (e *Engine) Shards() int { return 1 }

// Stats implements store.Engine.
func (e *Engine) Stats() store.Stats { return store.Stats{Stats: e.db.Stats()} }

// Checkpoint implements store.Engine.
func (e *Engine) Checkpoint() error { return e.db.Checkpoint() }

// Close implements store.Engine.
func (e *Engine) Close() error { return e.db.Close() }

// conn adapts a sqldb.Session to store.Conn.
type conn struct {
	s *sqldb.Session
}

func (c conn) ExecSQL(sql string, params ...sqldb.Value) (*sqldb.Result, error) {
	return c.s.ExecSQL(sql, params...)
}

func (c conn) Exec(st sqlparser.Statement, params ...sqldb.Value) (*sqldb.Result, error) {
	return c.s.Exec(st, params...)
}

func (c conn) ExecWithMeta(st sqlparser.Statement, meta []byte, params ...sqldb.Value) (*sqldb.Result, error) {
	return c.s.ExecWithMeta(st, meta, params...)
}

func (c conn) InTxn() bool          { return c.s.InTxn() }
func (c conn) TxnMetaPending() bool { return c.s.TxnMetaPending() }
func (c conn) Close() error         { return c.s.Close() }
