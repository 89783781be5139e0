package sharded

import (
	"fmt"
	"sync"

	"repro/internal/sqldb"
	"repro/internal/sqlparser"
)

// Conn is one client connection to a sharded engine: a lazily opened
// sqldb.Session per shard plus single-shard transaction state.
//
// Transactions pin to the first shard they write: BEGIN is recorded
// locally, the first routed write opens the transaction on its shard, and
// every later write must route to the same shard — a statement that routes
// elsewhere fails with a clear error (a transaction's writes commit on its
// shard alone; only a write outside one commits across shards). Reads inside
// a transaction scatter as usual; the pinned shard's session sees the
// transaction's buffered writes, every other shard serves committed state.
type Conn struct {
	eng *Engine

	mu     sync.Mutex
	sess   []*sqldb.Session
	txn    bool // BEGIN seen, not yet COMMIT/ROLLBACK
	pinned int  // shard the open transaction writes, -1 while unpinned
	closed bool
}

func (e *Engine) newConn() *Conn {
	return &Conn{eng: e, sess: make([]*sqldb.Session, len(e.shards)), pinned: -1}
}

// session returns (opening if needed) this connection's session on shard i.
func (c *Conn) session(i int) *sqldb.Session {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sessionLocked(i)
}

func (c *Conn) sessionLocked(i int) *sqldb.Session {
	if c.sess[i] == nil {
		c.sess[i] = c.eng.shards[i].NewSession()
	}
	return c.sess[i]
}

// Close implements store.Conn: rolls back any open transaction (via the
// per-shard session Close) and releases every session.
func (c *Conn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	c.txn = false
	c.pinned = -1
	var first error
	for _, s := range c.sess {
		if s != nil {
			if err := s.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// InTxn implements store.Conn.
func (c *Conn) InTxn() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.txn
}

// TxnMetaPending implements store.Conn.
func (c *Conn) TxnMetaPending() bool {
	c.mu.Lock()
	pinned := c.pinned
	c.mu.Unlock()
	if pinned < 0 {
		return false
	}
	return c.session(pinned).TxnMetaPending()
}

// ExecSQL implements store.Executor.
func (c *Conn) ExecSQL(sql string, params ...sqldb.Value) (*sqldb.Result, error) {
	st, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	return c.Exec(st, params...)
}

// Exec implements store.Executor.
func (c *Conn) Exec(st sqlparser.Statement, params ...sqldb.Value) (*sqldb.Result, error) {
	return c.exec(st, nil, params)
}

// ExecWithMeta implements store.Executor.
func (c *Conn) ExecWithMeta(st sqlparser.Statement, meta []byte, params ...sqldb.Value) (*sqldb.Result, error) {
	return c.exec(st, meta, params)
}

func (c *Conn) exec(st sqlparser.Statement, meta []byte, params []sqldb.Value) (*sqldb.Result, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, fmt.Errorf("sqldb: session is closed")
	}
	c.mu.Unlock()

	switch s := st.(type) {
	case *sqlparser.BeginStmt:
		c.mu.Lock()
		defer c.mu.Unlock()
		if c.txn {
			return nil, fmt.Errorf("sqldb: BEGIN inside an open transaction")
		}
		// Recorded locally; the shard-side BEGIN happens at the first
		// routed write, when the pin is known.
		c.txn = true
		c.pinned = -1
		return &sqldb.Result{}, nil

	case *sqlparser.CommitStmt:
		return c.execCommit(meta)

	case *sqlparser.RollbackStmt:
		c.mu.Lock()
		defer c.mu.Unlock()
		if !c.txn {
			return nil, fmt.Errorf("sqldb: ROLLBACK outside a transaction")
		}
		c.txn = false
		pinned := c.pinned
		c.pinned = -1
		if pinned < 0 {
			return &sqldb.Result{}, nil
		}
		return c.sessionLocked(pinned).Exec(&sqlparser.RollbackStmt{})

	case *sqlparser.SelectStmt:
		return c.execSelect(s, params)

	case *sqlparser.InsertStmt, *sqlparser.UpdateStmt, *sqlparser.DeleteStmt:
		return c.execWrite(st, meta, params)

	default:
		// DDL commits on every shard at once; like sqldb, a client's DDL
		// never rides its transaction.
		return c.eng.execAutonomous(st, meta, params)
	}
}

// execCommit commits the pinned shard's transaction (with the re-sealed
// metadata blob, if the caller passed one). An empty transaction — BEGIN
// with no writes — commits its blob alone, as the empty statement list.
func (c *Conn) execCommit(meta []byte) (*sqldb.Result, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.txn {
		return nil, fmt.Errorf("sqldb: COMMIT outside a transaction")
	}
	c.txn = false
	pinned := c.pinned
	c.pinned = -1
	if pinned < 0 {
		if meta != nil {
			c.mu.Unlock()
			_, err := c.eng.ExecAutonomousListWithMeta(nil, meta)
			c.mu.Lock()
			return &sqldb.Result{}, err
		}
		return &sqldb.Result{}, nil
	}
	sess := c.sessionLocked(pinned)
	return c.eng.withMeta(meta, func(wrapped []byte) (*sqldb.Result, error) {
		return sess.ExecWithMeta(&sqlparser.CommitStmt{}, wrapped)
	})
}

// execWrite runs one INSERT, UPDATE or DELETE where route places it.
// Outside a transaction it commits as an autonomous write does
// (Engine.write); inside one it runs on the pinned shard (target).
func (c *Conn) execWrite(st sqlparser.Statement, meta []byte, params []sqldb.Value) (*sqldb.Result, error) {
	pl, err := c.eng.route(st, params)
	if err != nil {
		return nil, err
	}
	sess, err := c.target(pl)
	switch {
	case err != nil:
		return nil, err
	case sess == nil:
		return c.eng.write(st, pl, meta, params)
	}
	return c.eng.withMeta(meta, func(wrapped []byte) (*sqldb.Result, error) {
		return sess.ExecWithMeta(st, wrapped, params...)
	})
}

// target returns the session an open transaction runs a write on, nil
// outside a transaction. The one check: a write that spans shards is
// refused, and any other must route to the shard the transaction pinned on
// its first write (opening the shard-side transaction then).
func (c *Conn) target(pl placement) (*sqldb.Session, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case !c.txn:
		return nil, nil
	case pl.parts != nil:
		return nil, fmt.Errorf("sharded: statement writes rows on several shards inside a transaction (transactions are single-shard; pin it with an equality on the routing column, split it, or run it outside the transaction)")
	case c.pinned == -1:
		if _, err := c.sessionLocked(pl.shard).Exec(&sqlparser.BeginStmt{}); err != nil {
			return nil, err
		}
		c.pinned = pl.shard
	case c.pinned != pl.shard:
		return nil, fmt.Errorf("sharded: statement routes to shard %d but the open transaction is pinned to shard %d (cross-shard transactions are not supported; COMMIT first)", pl.shard, c.pinned)
	}
	return c.sessionLocked(pl.shard), nil
}
