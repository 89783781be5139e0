package sqldb

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sqlparser"
)

// UDF is a scalar user-defined function callable from SQL. CryptDB
// registers DECRYPT_RND, JOIN_ADJ, SEARCHSWP and friends here, mirroring
// MySQL's CREATE FUNCTION mechanism (§7).
type UDF func(args []Value) (Value, error)

// AggState accumulates one group of an aggregate UDF.
type AggState interface {
	Step(args []Value) error
	Final() (Value, error)
}

// AggUDF creates a fresh accumulator per group. CryptDB registers HOM_SUM
// (Paillier product) here.
type AggUDF func() AggState

// Result is the outcome of executing one statement.
type Result struct {
	Columns  []string
	Rows     [][]Value
	Affected int
}

// DB is an embedded SQL database. All methods are safe for concurrent use;
// statements execute under a database-wide reader/writer lock, which — like
// the internal lock contention the paper observes in MySQL (§8.4.1) —
// bounds multi-core scaling for write-heavy mixes. Transactions are scoped
// to sessions (NewSession): any number of sessions may hold open
// transactions concurrently, writing into private write sets that commit
// atomically (see session.go). The DB-level Exec methods run on an
// implicit default session, preserving the seed's single-connection API.
type DB struct {
	mu      sync.RWMutex
	tables  map[string]*Table
	udfs    map[string]UDF
	aggUDFs map[string]AggUDF

	// openTxns tracks every in-flight transaction (guarded by mu); DROP
	// TABLE consults it so a commit can never resurrect a dropped table.
	openTxns map[*Txn]struct{}

	// locks is the striped slot-lock table (first-writer-wins row locks;
	// see locktable.go). It has its own per-stripe mutexes, so
	// transactional statements claim locks under mu's *read* side.
	locks lockTable

	defOnce sync.Once
	defSess *Session // lazy default session behind DB.Exec

	// Durability state (nil/zero for a pure in-memory database). stmtBuf
	// accumulates the redo records of the DDL statement being executed,
	// under mu; it holds pre-encoded WAL ops (see wal.go).
	wal         *walWriter
	lock        *dirLock
	dir         string
	dopts       DurabilityOptions
	walSeq      uint64
	stmtBuf     []byte
	checkpoints int64

	// pager is the buffer cache every table of this database belongs to;
	// set at construction, immutable afterwards. Its budget is unbounded
	// unless Open was asked to bound it (DurabilityOptions.Paged).
	pager *pager

	// Background checkpointer (started by Open). ckptMu single-flights
	// checkpoints; when both are taken, ckptMu comes first, then db.mu —
	// never the reverse. ckptKick is the commit path's non-blocking nudge.
	ckptMu   sync.Mutex
	ckptKick chan struct{}
	ckptStop chan struct{}
	ckptOnce sync.Once
	ckptWG   sync.WaitGroup
	// ckptPauseNanos is cumulative lock-hold time of checkpoints;
	// lastCkptBytes is the bytes the most recent one wrote (atomics).
	ckptPauseNanos atomic.Int64
	lastCkptBytes  atomic.Int64
	// ckptBgErr records the most recent background-checkpoint failure,
	// boxed so concrete error types may vary (see LastCheckpointError).
	ckptBgErr atomic.Value

	// snapSeq is the WAL sequence number the on-disk manifest covers;
	// frames at or below it are no longer in the log. Replication taps
	// consult it to decide between log-tail catch-up and a full snapshot
	// resync (see replication.go). Guarded by mu.
	snapSeq uint64

	// meta is the last committed application-metadata blob (the CryptDB
	// proxy's sealed state; see ExecWithMeta). It rides the WAL and the
	// manifest so it commits atomically with the writes it describes.
	meta []byte
	// metaVer counts committed meta transitions (atomic; see MetaVersion).
	metaVer atomic.Uint64

	// busyNanos accumulates wall time spent executing statements — the
	// "server-side" cost the paper's throughput figures measure (the
	// proxy ran on a separate machine in their testbed).
	busyNanos atomic.Int64

	// Planner counters (atomics; see PlanCounters).
	fullScans, eqScans, rangeScans, orderedScans, minMaxFast atomic.Int64
	compiledSel, hashJoins, nestedLoops                      atomic.Int64
}

// PlanCounters tallies the scan planner's access-path decisions: how many
// statements seeded from a full scan, a hash-index equality lookup, an
// ordered-index range scan or an index-ordered walk (ORDER BY ... LIMIT),
// and how many SELECTs were answered from index endpoints (MIN/MAX). It
// also tallies the execution layer's choices: SELECTs run by the compiled
// operator pipeline (Compiled; every SELECT but the MIN/MAX endpoint
// answers, index-ordered walks included), hash-join vs. nested-loop
// operators, and (summed in by a sharded store) GROUP BYs executed
// per-shard with partial-aggregate recombination.
type PlanCounters struct {
	FullScans    int64
	EqScans      int64
	RangeScans   int64
	OrderedScans int64
	MinMaxIndex  int64
	Compiled     int64
	HashJoins    int64
	NestedLoops  int64
	// Interpreted and DegradedJoins are always zero: they counted SELECTs
	// run by the AST interpreter, which is no longer in the binary (it is
	// the tests' reference executor, interp_test.go). The fields stay only
	// because the benchmark module (bench/layers.go) reads them and is
	// frozen against this package; a benchmark change can drop both.
	Interpreted   int64
	DegradedJoins int64
	// GroupPushdowns is always zero at the sqldb level; a sharded store
	// counts its scatter GROUP BY decompositions here when summing.
	GroupPushdowns int64
	// ParallelPipelines and Morsels are always zero: they counted SELECTs
	// split into morsels across worker goroutines, a mode that is no longer
	// in the binary (a SELECT runs on its session's goroutine). The fields
	// stay only because the benchmark module (bench/layers.go) reads them
	// and is frozen against this package; a benchmark change can drop both.
	ParallelPipelines int64
	Morsels           int64
}

// PlanCounters returns a snapshot of the planner's access-path tallies.
func (db *DB) PlanCounters() PlanCounters {
	return PlanCounters{
		FullScans:    db.fullScans.Load(),
		EqScans:      db.eqScans.Load(),
		RangeScans:   db.rangeScans.Load(),
		OrderedScans: db.orderedScans.Load(),
		MinMaxIndex:  db.minMaxFast.Load(),
		Compiled:     db.compiledSel.Load(),
		HashJoins:    db.hashJoins.Load(),
		NestedLoops:  db.nestedLoops.Load(),
	}
}

// BusyNanos reports cumulative statement execution time.
func (db *DB) BusyNanos() int64 { return db.busyNanos.Load() }

// ResetBusyNanos zeroes the server-time counter.
func (db *DB) ResetBusyNanos() { db.busyNanos.Store(0) }

func (db *DB) trackBusy(start time.Time) {
	db.busyNanos.Add(int64(time.Since(start)))
}

// New creates an empty in-memory database: its cache has no budget and no
// directory, so every page stays resident.
func New() *DB { return newDB(memPager()) }

func newDB(pg *pager) *DB {
	return &DB{
		tables:   make(map[string]*Table),
		udfs:     make(map[string]UDF),
		aggUDFs:  make(map[string]AggUDF),
		openTxns: make(map[*Txn]struct{}),
		pager:    pg,
	}
}

// defaultSession returns the implicit session behind the DB-level Exec
// methods, creating it on first use.
func (db *DB) defaultSession() *Session {
	db.defOnce.Do(func() { db.defSess = db.NewSession() })
	return db.defSess
}

// registerTxn records a newly begun transaction.
func (db *DB) registerTxn(txn *Txn) {
	db.mu.Lock()
	db.openTxns[txn] = struct{}{}
	db.mu.Unlock()
}

// RegisterUDF installs a scalar UDF under name (case-sensitive, by
// convention lower_snake like MySQL UDFs).
func (db *DB) RegisterUDF(name string, fn UDF) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.udfs[name] = fn
}

// RegisterAggUDF installs an aggregate UDF.
func (db *DB) RegisterAggUDF(name string, fn AggUDF) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.aggUDFs[name] = fn
}

// Table returns a table by name (nil if absent). Intended for tests and
// storage accounting, not for bypassing SQL.
func (db *DB) Table(name string) *Table {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tables[name]
}

// TableNames lists tables in sorted order.
func (db *DB) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// SizeBytes approximates the whole database's storage footprint.
func (db *DB) SizeBytes() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	total := 0
	for _, t := range db.tables {
		total += t.SizeBytes()
	}
	return total
}

// ExecSQL parses and executes a single statement.
func (db *DB) ExecSQL(sql string, params ...Value) (*Result, error) {
	st, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	return db.Exec(st, params...)
}

// Exec executes a parsed statement on the implicit default session. Code
// that needs concurrent transactions opens explicit sessions instead
// (NewSession); statements outside a transaction behave identically either
// way.
func (db *DB) Exec(st sqlparser.Statement, params ...Value) (*Result, error) {
	return db.defaultSession().Exec(st, params...)
}

// ExecWithMeta executes a write statement and attaches an opaque
// application-metadata blob to the same WAL commit unit: the blob becomes
// durable if and only if the statement's writes do (for a statement inside
// a transaction, at COMMIT). The CryptDB proxy uses this to keep its
// onion-layer metadata exactly in sync with the ciphertext transitions it
// issues — a crash can never observe the data adjusted but the metadata
// not, or vice versa. The latest committed blob is returned by Meta after
// Open. On an in-memory database the blob is retained in memory only.
func (db *DB) ExecWithMeta(st sqlparser.Statement, meta []byte, params ...Value) (*Result, error) {
	return db.defaultSession().ExecWithMeta(st, meta, params...)
}

// execStateless dispatches a statement that does not involve this caller's
// transaction state: reads, autocommit writes, and DDL (which is always
// durable immediately — it is not buffered, so it must not be discardable
// by a client ROLLBACK). Transaction delimiters are rejected; they only
// make sense on a session.
func (db *DB) execStateless(st sqlparser.Statement, meta []byte, params []Value) (*Result, error) {
	defer db.trackBusy(time.Now())
	switch s := st.(type) {
	case *sqlparser.SelectStmt:
		db.mu.RLock()
		defer db.mu.RUnlock()
		return db.execSelect(nil, s, params)
	case *sqlparser.InsertStmt, *sqlparser.UpdateStmt, *sqlparser.DeleteStmt:
		return db.autocommitWrite(st, meta, params)
	case *sqlparser.CreateTableStmt:
		return db.autocommitDDL(meta, func() (*Result, error) { return db.execCreateTable(s) })
	case *sqlparser.CreateIndexStmt:
		return db.autocommitDDL(meta, func() (*Result, error) { return db.execCreateIndex(s) })
	case *sqlparser.DropTableStmt:
		return db.autocommitDDL(meta, func() (*Result, error) { return db.execDropTable(s) })
	case *sqlparser.BeginStmt, *sqlparser.CommitStmt, *sqlparser.RollbackStmt:
		return nil, fmt.Errorf("sqldb: transaction statements require a session")
	case *sqlparser.PrincTypeStmt:
		// Principal declarations are proxy metadata; the DBMS ignores
		// them (they never reach a real server in CryptDB either).
		return &Result{}, nil
	}
	return nil, fmt.Errorf("sqldb: unsupported statement %T", st)
}

// CanDropTable reports whether DROP TABLE would currently succeed: the
// table exists and no open transaction has buffered writes against it. A
// sharded store pre-flights a drop broadcast with this on every shard so
// one shard's refusal cannot leave the schema half-dropped. Advisory: a
// transaction may write the table between the probe and the drop.
func (db *DB) CanDropTable(name string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.tables[name]; !ok {
		return fmt.Errorf("sqldb: no table %s", name)
	}
	for txn := range db.openTxns {
		if txn.writes(name) {
			return fmt.Errorf("sqldb: cannot drop %s: written by an open transaction", name)
		}
	}
	return nil
}

func (db *DB) execDropTable(s *sqlparser.DropTableStmt) (*Result, error) {
	if _, ok := db.tables[s.Name]; !ok {
		return nil, fmt.Errorf("sqldb: no table %s", s.Name)
	}
	// Refuse while an open transaction has buffered writes against the
	// table: its commit would otherwise apply to an orphaned Table and
	// write redo records for a name replay cannot resolve.
	for txn := range db.openTxns {
		if txn.writes(s.Name) {
			return nil, fmt.Errorf("sqldb: cannot drop %s: written by an open transaction", s.Name)
		}
	}
	db.pager.forgetTable(db.tables[s.Name])
	delete(db.tables, s.Name)
	db.redoDropTable(s.Name)
	return &Result{}, nil
}

// SetMeta durably commits an application-metadata blob in its own WAL
// batch, independent of any statement. See ExecWithMeta.
func (db *DB) SetMeta(meta []byte) error {
	if db.wal != nil {
		// Announce before taking the lock, so a flushing leader knows to
		// hold its cohort open for this blob's frame (the same protocol
		// autocommit follows).
		db.wal.announce()
		defer db.wal.retire()
	}
	db.mu.Lock()
	if db.wal == nil {
		db.meta = append([]byte(nil), meta...)
		db.metaVer.Add(1)
		db.mu.Unlock()
		return nil
	}
	// Stage under the lock — sequence numbers and db.meta stay in lockstep
	// with WAL order — but pay the fsync after releasing it, so a metadata
	// commit never stalls readers or other committers.
	db.walSeq++
	cohort := db.wal.enqueue(db.walSeq, appendMetaOp(nil, meta))
	db.meta = append([]byte(nil), meta...)
	db.metaVer.Add(1)
	db.mu.Unlock()

	if err := db.wal.waitFlush(cohort); err != nil {
		return &DurabilityError{Err: err}
	}
	return nil
}

// Meta returns the last committed application-metadata blob (nil if none):
// after Open, the blob recovered from the snapshot and WAL.
func (db *DB) Meta() []byte {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.meta
}

// DurabilityError reports that a statement applied in memory but could not
// be made durable (the WAL append or sync failed). The distinction matters
// to callers that mirror database state: on an ordinary error the
// statement had no effect, but on a DurabilityError it did — both the
// in-memory state and (since redo records and any attached metadata share
// one batch) the would-have-been disk state moved together, so caller-side
// rollbacks would desynchronize, not repair. The CryptDB proxy keeps its
// metadata transitions when it sees one of these.
type DurabilityError struct{ Err error }

// Error implements the error interface.
func (e *DurabilityError) Error() string {
	return "sqldb: statement applied but not durable: " + e.Err.Error()
}

// Unwrap exposes the underlying I/O error.
func (e *DurabilityError) Unwrap() error { return e.Err }

func (db *DB) redoCreateTable(s *sqlparser.CreateTableStmt) {
	if db.wal == nil {
		return
	}
	cols := make([]walColDef, len(s.Cols))
	for i, c := range s.Cols {
		cols[i] = walColDef{name: c.Name, typ: c.Type, primary: c.Primary}
	}
	db.stmtBuf = appendCreateTableOp(db.stmtBuf, s.Name, cols)
}

func (db *DB) redoCreateIndex(table, column string, unique, ordered bool) {
	if db.wal != nil {
		db.stmtBuf = appendCreateIndexOp(db.stmtBuf, table, column, unique, ordered)
	}
}

func (db *DB) redoDropTable(name string) {
	if db.wal != nil {
		db.stmtBuf = appendDropTableOp(db.stmtBuf, name)
	}
}

func (db *DB) execCreateTable(s *sqlparser.CreateTableStmt) (*Result, error) {
	if _, exists := db.tables[s.Name]; exists {
		return nil, fmt.Errorf("sqldb: table %s already exists", s.Name)
	}
	cols := make([]Column, len(s.Cols))
	seen := make(map[string]bool, len(s.Cols))
	for i, c := range s.Cols {
		if seen[c.Name] {
			return nil, fmt.Errorf("sqldb: duplicate column %s.%s", s.Name, c.Name)
		}
		seen[c.Name] = true
		cols[i] = Column{Name: c.Name, Type: c.Type, Primary: c.Primary}
	}
	t := newTable(s.Name, cols, db.pager)
	for _, c := range s.Cols {
		if c.Primary {
			if err := t.addIndex(c.Name, true); err != nil {
				return nil, err
			}
		}
	}
	db.tables[s.Name] = t
	db.redoCreateTable(s)
	return &Result{}, nil
}

func (db *DB) execCreateIndex(s *sqlparser.CreateIndexStmt) (*Result, error) {
	t, ok := db.tables[s.Table]
	if !ok {
		return nil, fmt.Errorf("sqldb: no table %s", s.Table)
	}
	switch strings.ToUpper(s.Using) {
	case "":
		// MySQL's default index is a B-tree serving both equality and
		// range; our substrate splits that into a hash index plus an
		// ordered index.
		if err := t.addIndex(s.Column, s.Unique); err != nil {
			return nil, err
		}
		db.redoCreateIndex(s.Table, s.Column, s.Unique, false)
		if err := t.addOrdIndex(s.Column); err != nil {
			return nil, err
		}
		db.redoCreateIndex(s.Table, s.Column, false, true)
		return &Result{}, nil
	case "HASH":
		if err := t.addIndex(s.Column, s.Unique); err != nil {
			return nil, err
		}
		db.redoCreateIndex(s.Table, s.Column, s.Unique, false)
		return &Result{}, nil
	case "BTREE", "ORDERED":
		if s.Unique {
			// Uniqueness is enforced through a hash index; the ordered
			// index only accelerates ranges.
			if err := t.addIndex(s.Column, true); err != nil {
				return nil, err
			}
			db.redoCreateIndex(s.Table, s.Column, true, false)
		}
		if err := t.addOrdIndex(s.Column); err != nil {
			return nil, err
		}
		db.redoCreateIndex(s.Table, s.Column, false, true)
		return &Result{}, nil
	}
	return nil, fmt.Errorf("sqldb: unknown index type %q", s.Using)
}

//
// Transactions are per-session (see session.go): sessions buffer their
// writes privately and commit atomically under a short critical section,
// with first-writer-wins conflict detection on row slots. The helpers
// below preserve the seed's DB-level API.
//

// InTxn reports whether any session currently holds an open transaction.
func (db *DB) InTxn() bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.openTxns) > 0
}

// ExecAutonomous executes a write statement outside any open transaction,
// as if on a separate connection that commits immediately. The CryptDB
// proxy uses this for onion adjustments and resyncs: those server-side
// rewrites reflect proxy metadata transitions and must survive a client
// ROLLBACK. The statement still executes atomically under the database
// lock; if it touches a row slot owned by an open transaction it fails
// with a WriteConflictError rather than waiting (first writer wins, and
// blocking here could deadlock against the transaction's own next
// statement).
func (db *DB) ExecAutonomous(st sqlparser.Statement, params ...Value) (*Result, error) {
	return db.execStateless(st, nil, params)
}

// ExecAutonomousWithMeta combines ExecAutonomous and ExecWithMeta: the
// statement commits outside any open transaction, and the metadata blob
// commits durably in the same WAL batch. The proxy's onion adjustments use
// this so a layer transition and the metadata recording it are atomic.
func (db *DB) ExecAutonomousWithMeta(st sqlparser.Statement, meta []byte, params ...Value) (*Result, error) {
	return db.execStateless(st, meta, params)
}
