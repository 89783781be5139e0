// Package store defines the storage-engine interface the CryptDB proxy
// speaks to. The paper's design deliberately keeps the proxy's view of the
// DBMS narrow — SQL over encrypted columns, a handful of UDFs, and an
// opaque metadata channel — which is exactly what makes the DBMS swappable.
// This package captures that surface as Engine/Conn so the proxy, the
// multi-principal layer and the server bind to an interface, with two
// implementations behind it:
//
//   - store/single: a thin adapter over one embedded sqldb.DB — the seed's
//     topology, unchanged semantics.
//   - store/sharded: N sqldb instances, each with its own data directory,
//     write-ahead log and group-commit cohort; rows are routed by hash of
//     the hidden row id, DDL and sealed proxy metadata broadcast to every
//     shard, and a read that spans shards runs a per-shard statement on
//     each and one coordinator statement over their rows.
//
// The split mirrors the paper's §8.4.1 observation that the DBMS — not the
// cryptography — bounds steady-state throughput: once queries are
// ciphertext-only, scaling the store is an ordinary (non-cryptographic)
// systems problem.
package store

import (
	"repro/internal/sqldb"
	"repro/internal/sqlparser"
)

// Executor is the statement surface shared by Engine (its implicit default
// connection) and Conn.
type Executor interface {
	// ExecSQL parses and executes one statement.
	ExecSQL(sql string, params ...sqldb.Value) (*sqldb.Result, error)
	// Exec executes a parsed statement.
	Exec(st sqlparser.Statement, params ...sqldb.Value) (*sqldb.Result, error)
	// ExecWithMeta executes a write statement with an opaque metadata blob
	// attached to the same commit unit: the blob becomes durable if and
	// only if the statement's writes do. The proxy commits its sealed
	// onion metadata through this channel (see sqldb.ExecWithMeta).
	ExecWithMeta(st sqlparser.Statement, meta []byte, params ...sqldb.Value) (*sqldb.Result, error)
}

// Conn is one client's connection to the engine: the unit of transaction
// scope. The proxy opens one per proxy.Session (one per TCP connection in
// cryptdb-server).
type Conn interface {
	Executor
	// InTxn reports whether this connection has an open transaction.
	InTxn() bool
	// TxnMetaPending reports whether the open transaction carries a
	// metadata blob that will commit with it.
	TxnMetaPending() bool
	// Close releases the connection, rolling back any open transaction.
	Close() error
}

// TableInfo is read-only table introspection.
type TableInfo interface {
	RowCount() int
	SizeBytes() int
}

// Stats aggregates engine-wide counters. For a sharded engine every field
// sums (or concatenates) across shards — reading shard 0 alone would
// under-report by a factor of the shard count.
type Stats struct {
	Shards    int
	Plan      sqldb.PlanCounters
	WAL       sqldb.WALStats
	SizeBytes int
	BusyNanos int64
	// Cache aggregates buffer-cache activity (BudgetBytes is 0 when the
	// cache has no budget). Resident bytes and on-disk bytes are reported
	// separately on purpose: under a budget the former is bounded by it,
	// the latter grows with the data.
	Cache sqldb.CacheStats
	// DiskBytes is the on-disk footprint: page segments plus the live WAL,
	// summed across shards.
	DiskBytes int64
	// CheckpointPauseNanos is cumulative time commits were stalled by
	// checkpoints (their capture and install phases); LastCheckpointBytes
	// is what the most recent checkpoint wrote.
	CheckpointPauseNanos int64
	LastCheckpointBytes  int64
	// Followers lists per-follower replication progress when this engine
	// is a replicating primary (empty otherwise).
	Followers []FollowerStat
}

// FollowerStat is one connected follower's replication progress, as seen
// by the primary. Lag is PrimarySeq - AckedSeq, in commit batches.
type FollowerStat struct {
	Remote     string
	Shard      int
	SentSeq    uint64
	AckedSeq   uint64
	PrimarySeq uint64
}

// ReadOnlyError reports that a statement tried to write through a
// follower engine. Followers serve reads only; the error names the
// primary so a client (or proxy) can redirect the write.
type ReadOnlyError struct{ Primary string }

// Error implements the error interface.
func (e *ReadOnlyError) Error() string {
	return "store: follower is read-only; send writes to the primary at " + e.Primary
}

// Replica is implemented by follower engines. The proxy detects it to
// route writes away and to refresh its sealed metadata when the
// replicated blob advances.
type Replica interface {
	// PrimaryAddr returns the replication address of the primary this
	// follower tails.
	PrimaryAddr() string
	// ReplicaSeq returns the replay position: the minimum committed WAL
	// sequence across the follower's shards. Monotone non-decreasing for
	// the life of the engine, across reconnects.
	ReplicaSeq() uint64
	// MetaGeneration counts committed metadata transitions observed by
	// the follower (summed across shards) — a cheap change detector for
	// re-loading sealed proxy state.
	MetaGeneration() uint64
}

// Engine is one logical DBMS behind the proxy.
//
// Aggregate UDFs registered through RegisterAggUDF must be decomposable:
// re-applying the UDF to per-shard partial results must produce the same
// final value as one pass over all rows (true for hom_sum — a product of
// partial Paillier products is the total product — and for any
// commutative-monoid aggregate). A sharded engine relies on this to merge
// per-shard partial aggregates.
type Engine interface {
	Executor

	// NewConn opens an independent connection.
	NewConn() Conn

	// ExecAutonomous executes a write statement outside any open
	// transaction, as if on a separate connection that commits
	// immediately. The proxy uses it for onion adjustments and resyncs,
	// which must survive a client ROLLBACK.
	ExecAutonomous(st sqlparser.Statement, params ...sqldb.Value) (*sqldb.Result, error)
	// ExecAutonomousWithMeta combines ExecAutonomous and ExecWithMeta.
	ExecAutonomousWithMeta(st sqlparser.Statement, meta []byte, params ...sqldb.Value) (*sqldb.Result, error)

	// SetMeta durably commits a metadata blob in its own commit unit.
	SetMeta(meta []byte) error
	// Meta returns the last committed metadata blob (nil if none); after
	// reopening a durable engine, the newest blob recovered from disk.
	Meta() []byte

	// RegisterUDF installs a scalar UDF on every underlying DBMS instance.
	RegisterUDF(name string, fn sqldb.UDF)
	// RegisterAggUDF installs an aggregate UDF (see the decomposability
	// contract above).
	RegisterAggUDF(name string, fn sqldb.AggUDF)

	// Table returns introspection for a table, or nil if absent.
	Table(name string) TableInfo
	// TableNames lists tables in sorted order.
	TableNames() []string

	// InTxn reports whether any connection holds an open transaction.
	InTxn() bool
	// Shards reports the partition count (1 for a single engine). Callers
	// that need cross-partition statement atomicity — which a sharded
	// engine cannot provide without distributed commit — consult this.
	Shards() int

	// Stats sums counters across every underlying instance.
	Stats() Stats
	// ResetBusyNanos zeroes the server-time counter on every instance.
	ResetBusyNanos()

	// Checkpoint writes every instance's dirty pages and truncates its WAL.
	Checkpoint() error
	// Close flushes and closes every instance.
	Close() error
}
