// Package replicated composes the store engines with internal/repl:
//
//   - WrapPrimary decorates an existing single or sharded engine with a
//     replication listener that ships each shard's WAL to followers, and
//     surfaces per-follower lag through Stats().
//   - OpenFollower opens (or creates) a local engine mirroring the
//     primary's topology — probed over the wire — and tails every shard's
//     stream into it. The resulting engine is read-only: SELECTs execute
//     locally against replayed state, every write returns a
//     store.ReadOnlyError naming the primary.
//
// The sealed proxy metadata rides the replicated WAL frames, so a
// follower's Meta() serves the newest blob that has replayed locally —
// the proxy layer uses MetaGeneration to notice transitions and reload.
package replicated

import (
	"fmt"
	"time"

	"repro/internal/repl"
	"repro/internal/sqldb"
	"repro/internal/sqlparser"
	"repro/internal/store"
	"repro/internal/store/sharded"
	"repro/internal/store/single"
)

// shardDBs extracts the per-shard databases (and topology flags) a
// replication endpoint needs from a store engine.
func shardDBs(eng store.Engine) ([]*sqldb.DB, uint32, error) {
	switch e := eng.(type) {
	case *single.Engine:
		return []*sqldb.DB{e.DB()}, 0, nil
	case *sharded.Engine:
		dbs := make([]*sqldb.DB, e.Shards())
		for i := range dbs {
			dbs[i] = e.Shard(i)
		}
		return dbs, repl.FlagSharded, nil
	}
	return nil, 0, fmt.Errorf("replicated: unsupported engine type %T", eng)
}

//
// Primary side
//

// PrimaryEngine is a store engine that also ships its WAL to followers.
// All statement execution passes through unchanged; replication is
// asynchronous and never blocks a commit.
type PrimaryEngine struct {
	store.Engine
	repl *repl.Primary
}

// WrapPrimary attaches a replication listener on addr to an opened
// engine. The engine must be durable (followers are seeded from its WAL
// and snapshots).
func WrapPrimary(eng store.Engine, addr string) (*PrimaryEngine, error) {
	dbs, flags, err := shardDBs(eng)
	if err != nil {
		return nil, err
	}
	p, err := repl.NewPrimary(dbs, addr, flags)
	if err != nil {
		return nil, err
	}
	return &PrimaryEngine{Engine: eng, repl: p}, nil
}

// Addr returns the replication listener's address.
func (p *PrimaryEngine) Addr() string { return p.repl.Addr() }

// Replication exposes the underlying replication endpoint (fault
// injection, follower stats).
func (p *PrimaryEngine) Replication() *repl.Primary { return p.repl }

// Stats implements store.Engine, adding per-follower progress.
func (p *PrimaryEngine) Stats() store.Stats {
	st := p.Engine.Stats()
	st.Followers = p.repl.FollowerStats()
	return st
}

// Close stops replication first (so followers see a clean disconnect, not
// a torn frame), then closes the engine.
func (p *PrimaryEngine) Close() error {
	perr := p.repl.Close()
	if err := p.Engine.Close(); err != nil {
		return err
	}
	return perr
}

//
// Follower side
//

// FollowerEngine is a read-only engine whose state is replayed from a
// primary's WAL stream. Reads execute locally; writes fail with
// store.ReadOnlyError.
type FollowerEngine struct {
	eng       store.Engine
	dbs       []*sqldb.DB
	followers []*repl.Follower
	primary   string
	sharded   bool
}

// OpenFollower opens (creating if needed) a local data directory shaped
// like the primary's engine — topology probed from primaryAddr — and
// starts tailing every shard. A follower that already has local state
// resumes from its own recovered WAL position; one whose position has
// been checkpointed away on the primary is re-seeded with a snapshot
// automatically.
func OpenFollower(dir, primaryAddr string, opts sqldb.DurabilityOptions) (*FollowerEngine, error) {
	shards, flags, err := repl.Probe(primaryAddr)
	if err != nil {
		return nil, fmt.Errorf("replicated: probing primary: %w", err)
	}
	if shards < 1 {
		return nil, fmt.Errorf("replicated: primary reports %d shards", shards)
	}
	isSharded := flags&repl.FlagSharded != 0

	var eng store.Engine
	if isSharded {
		// opts.CacheBytes is the engine-wide budget; each shard gets an
		// equal slice, matching the primary-side convention.
		if shards > 1 && opts.CacheBytes > 0 {
			opts.CacheBytes /= int64(shards)
		}
		se, err := sharded.OpenReplica(dir, shards, opts)
		if err != nil {
			return nil, err
		}
		eng = se
	} else {
		se, err := single.Open(dir, opts)
		if err != nil {
			return nil, err
		}
		eng = se
	}
	dbs, _, err := shardDBs(eng)
	if err != nil {
		eng.Close() //nolint:errcheck // unwinding a failed open
		return nil, err
	}
	f := &FollowerEngine{eng: eng, dbs: dbs, primary: primaryAddr, sharded: isSharded}
	for i, db := range dbs {
		f.followers = append(f.followers, repl.StartFollower(db, primaryAddr, i))
	}
	return f, nil
}

// readOnly is the uniform write refusal.
func (f *FollowerEngine) readOnly() error { return &store.ReadOnlyError{Primary: f.primary} }

// guard admits read statements and refuses everything else.
func (f *FollowerEngine) guard(st sqlparser.Statement) error {
	if _, ok := st.(*sqlparser.SelectStmt); ok {
		return nil
	}
	return f.readOnly()
}

// PrimaryAddr implements store.Replica.
func (f *FollowerEngine) PrimaryAddr() string { return f.primary }

// ReplicaSeq implements store.Replica: the minimum replayed sequence
// across shards (every shard has applied at least this much).
func (f *FollowerEngine) ReplicaSeq() uint64 {
	var minSeq uint64
	for i, db := range f.dbs {
		if s := db.Seq(); i == 0 || s < minSeq {
			minSeq = s
		}
	}
	return minSeq
}

// MetaGeneration implements store.Replica.
func (f *FollowerEngine) MetaGeneration() uint64 {
	var sum uint64
	for _, db := range f.dbs {
		sum += db.MetaVersion()
	}
	return sum
}

// Follower exposes one shard's replication tail (tests and the server's
// catch-up wait).
func (f *FollowerEngine) Follower(shard int) *repl.Follower { return f.followers[shard] }

// Shard exposes one shard's replayed database (tests, tooling).
func (f *FollowerEngine) Shard(i int) *sqldb.DB { return f.dbs[i] }

// WaitCaughtUp blocks until every shard's replay position reaches the
// corresponding sequence in seqs (one entry per shard).
func (f *FollowerEngine) WaitCaughtUp(seqs []uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for i, fw := range f.followers {
		var want uint64
		if i < len(seqs) {
			want = seqs[i]
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			remain = time.Millisecond
		}
		if err := fw.WaitCaughtUp(want, remain); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// Meta implements store.Engine. The underlying engine's in-memory blob is
// stale on a follower (metadata arrives through replayed frames), so the
// newest committed blob is read directly from the shard databases —
// unwrapping the sharded engine's sequence envelope when the primary is
// sharded, exactly like sharded recovery does.
func (f *FollowerEngine) Meta() []byte {
	if !f.sharded {
		return f.dbs[0].Meta()
	}
	var best []byte
	var bestSeq uint64
	found := false
	for _, db := range f.dbs {
		if seq, blob, ok := sharded.UnwrapMeta(db.Meta()); ok && (!found || seq > bestSeq) {
			found, bestSeq, best = true, seq, blob
		}
	}
	return best
}

// ExecSQL implements store.Executor (reads only).
func (f *FollowerEngine) ExecSQL(sql string, params ...sqldb.Value) (*sqldb.Result, error) {
	st, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	return f.Exec(st, params...)
}

// Exec implements store.Executor (reads only).
func (f *FollowerEngine) Exec(st sqlparser.Statement, params ...sqldb.Value) (*sqldb.Result, error) {
	if err := f.guard(st); err != nil {
		return nil, err
	}
	return f.eng.Exec(st, params...)
}

// ExecWithMeta implements store.Executor. Always refused: a metadata
// commit is a write.
func (f *FollowerEngine) ExecWithMeta(st sqlparser.Statement, meta []byte, params ...sqldb.Value) (*sqldb.Result, error) {
	return nil, f.readOnly()
}

// ExecAutonomous implements store.Engine (refused).
func (f *FollowerEngine) ExecAutonomous(st sqlparser.Statement, params ...sqldb.Value) (*sqldb.Result, error) {
	return nil, f.readOnly()
}

// ExecAutonomousWithMeta implements store.Engine (refused).
func (f *FollowerEngine) ExecAutonomousWithMeta(st sqlparser.Statement, meta []byte, params ...sqldb.Value) (*sqldb.Result, error) {
	return nil, f.readOnly()
}

// ExecAutonomousListWithMeta implements store.Engine (refused).
func (f *FollowerEngine) ExecAutonomousListWithMeta(stmts []sqlparser.Statement, meta []byte) (*sqldb.Result, error) {
	return nil, f.readOnly()
}

// NewConn implements store.Engine: a read-only connection. Transactions
// are refused outright (BEGIN is a write-intent statement; bounded-stale
// reads don't need one).
func (f *FollowerEngine) NewConn() store.Conn {
	return &followerConn{f: f, conn: f.eng.NewConn()}
}

// RegisterUDF implements store.Engine (needed for SELECT-side UDFs).
func (f *FollowerEngine) RegisterUDF(name string, fn sqldb.UDF) { f.eng.RegisterUDF(name, fn) }

// RegisterAggUDF implements store.Engine.
func (f *FollowerEngine) RegisterAggUDF(name string, fn sqldb.AggUDF) { f.eng.RegisterAggUDF(name, fn) }

// Table implements store.Engine.
func (f *FollowerEngine) Table(name string) store.TableInfo { return f.eng.Table(name) }

// TableNames implements store.Engine.
func (f *FollowerEngine) TableNames() []string { return f.eng.TableNames() }

// InTxn implements store.Engine (always false: no transactions).
func (f *FollowerEngine) InTxn() bool { return false }

// Shards implements store.Engine.
func (f *FollowerEngine) Shards() int { return f.eng.Shards() }

// Stats implements store.Engine.
func (f *FollowerEngine) Stats() store.Stats { return f.eng.Stats() }

// Checkpoint implements store.Engine: checkpointing local replayed state
// is a maintenance write, not a logical one, and stays allowed.
func (f *FollowerEngine) Checkpoint() error { return f.eng.Checkpoint() }

// Close stops the replication tails, then closes the local engine.
func (f *FollowerEngine) Close() error {
	for _, fw := range f.followers {
		fw.Close()
	}
	return f.eng.Close()
}

// followerConn is a read-only store.Conn.
type followerConn struct {
	f    *FollowerEngine
	conn store.Conn
}

func (c *followerConn) ExecSQL(sql string, params ...sqldb.Value) (*sqldb.Result, error) {
	st, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	return c.Exec(st, params...)
}

func (c *followerConn) Exec(st sqlparser.Statement, params ...sqldb.Value) (*sqldb.Result, error) {
	if err := c.f.guard(st); err != nil {
		return nil, err
	}
	return c.conn.Exec(st, params...)
}

func (c *followerConn) ExecWithMeta(st sqlparser.Statement, meta []byte, params ...sqldb.Value) (*sqldb.Result, error) {
	return nil, c.f.readOnly()
}

func (c *followerConn) InTxn() bool          { return false }
func (c *followerConn) TxnMetaPending() bool { return false }
func (c *followerConn) Close() error         { return c.conn.Close() }
