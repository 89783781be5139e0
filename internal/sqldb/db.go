package sqldb

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fsutil"
	"repro/internal/sqlparser"
)

// UDF is a scalar user-defined function callable from SQL. CryptDB
// registers DECRYPT_RND, JOIN_ADJ, SEARCHSWP and friends here, mirroring
// MySQL's CREATE FUNCTION mechanism (§7).
type UDF func(args []Value) (Value, error)

// AggState accumulates one group of an aggregate UDF. Step must not retain
// args: the executor refills the slice for the group's next row.
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

	// pending holds the redo of each prepared part awaiting its outcome,
	// and decided the ids of the writes this database decided whose parts
	// may still await publication (prepare.go). Guarded by mu.
	pending map[uint64][]byte
	decided map[uint64]struct{}

	// locks is the striped slot-lock table (first-writer-wins row locks;
	// see locktable.go). It has its own per-stripe mutexes, so
	// transactional statements claim locks under mu's *read* side.
	locks lockTable

	defOnce sync.Once
	defSess *Session // lazy default session behind DB.Exec

	// Durability state (nil/zero for a pure in-memory database). Every
	// file call goes through fs.
	fs          fsutil.FS
	wal         *walWriter
	lock        *dirLock
	dir         string
	dopts       DurabilityOptions
	walSeq      uint64
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

	// Planner counters (atomics; see Stats).
	fullScans, eqScans, rangeScans, orderedScans, minMaxFast atomic.Int64
	compiledSel, hashJoins, indexJoins, nestedLoops          atomic.Int64
}

// PlanCounters tallies the scan planner's access-path decisions: how many
// statements seeded from a full scan, a hash-index equality lookup, an
// ordered-index range scan or an index-ordered walk (ORDER BY ... LIMIT),
// and how many SELECTs were answered from index endpoints (MIN/MAX). It
// also tallies the execution layer's choices: SELECTs run by the compiled
// operator pipeline (Compiled; every SELECT but the MIN/MAX endpoint
// answers, index-ordered walks included), hash-join vs. nested-loop
// operators — IndexJoins counts the hash joins that probed the build
// table's own hash index instead of hashing its rows — and (summed in by a
// sharded store) GROUP BYs executed per-shard with partial-aggregate
// recombination.
type PlanCounters struct {
	FullScans    int64
	EqScans      int64
	RangeScans   int64
	OrderedScans int64
	MinMaxIndex  int64
	Compiled     int64
	HashJoins    int64
	IndexJoins   int64
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

// Stats is one snapshot of a database's counters and sizes. The counters
// (Plan, WAL, cache hits, misses and evictions, BusyNanos,
// CheckpointPauseNanos) accumulate from the database's creation or opening
// and nothing resets them: readers take the difference of two snapshots.
type Stats struct {
	Plan PlanCounters
	WAL  WALStats // zero for an in-memory database
	// Cache is buffer-cache activity. Resident bytes and on-disk bytes are
	// reported separately on purpose: under a budget the former is bounded
	// by it, the latter grows with the data.
	Cache     CacheStats
	SizeBytes int // the tables' approximate storage footprint
	// BusyNanos is wall time spent executing statements: the server-side
	// cost of the paper's proxy/server split (§8).
	BusyNanos int64
	// DiskBytes is the on-disk footprint: page segments plus the live WAL
	// (zero for an in-memory database).
	DiskBytes int64
	// CheckpointPauseNanos is the time checkpoints held the database lock
	// (capture and install; segment writing overlaps commits), and
	// LastCheckpointBytes what the most recent one wrote: the dirty pages'
	// segments plus the manifest.
	CheckpointPauseNanos int64
	LastCheckpointBytes  int64
}

// Add sums o into s, field by field. It is the only place the counters of
// several databases (a sharded store's shards) are summed.
func (s *Stats) Add(o Stats) {
	s.Plan.FullScans += o.Plan.FullScans
	s.Plan.EqScans += o.Plan.EqScans
	s.Plan.RangeScans += o.Plan.RangeScans
	s.Plan.OrderedScans += o.Plan.OrderedScans
	s.Plan.MinMaxIndex += o.Plan.MinMaxIndex
	s.Plan.Compiled += o.Plan.Compiled
	s.Plan.HashJoins += o.Plan.HashJoins
	s.Plan.IndexJoins += o.Plan.IndexJoins
	s.Plan.NestedLoops += o.Plan.NestedLoops
	s.Plan.Interpreted += o.Plan.Interpreted
	s.Plan.DegradedJoins += o.Plan.DegradedJoins
	s.Plan.GroupPushdowns += o.Plan.GroupPushdowns
	s.Plan.ParallelPipelines += o.Plan.ParallelPipelines
	s.Plan.Morsels += o.Plan.Morsels
	s.WAL.Batches += o.WAL.Batches
	s.WAL.Bytes += o.WAL.Bytes
	s.WAL.Syncs += o.WAL.Syncs
	s.WAL.Checkpoints += o.WAL.Checkpoints
	s.Cache.Hits += o.Cache.Hits
	s.Cache.Misses += o.Cache.Misses
	s.Cache.Evictions += o.Cache.Evictions
	s.Cache.ResidentBytes += o.Cache.ResidentBytes
	s.Cache.BudgetBytes += o.Cache.BudgetBytes
	s.Cache.ResidentPages += o.Cache.ResidentPages
	s.SizeBytes += o.SizeBytes
	s.BusyNanos += o.BusyNanos
	s.DiskBytes += o.DiskBytes
	s.CheckpointPauseNanos += o.CheckpointPauseNanos
	s.LastCheckpointBytes += o.LastCheckpointBytes
}

// Stats returns a snapshot of the database's counters, read under one
// hold of the read lock.
func (db *DB) Stats() Stats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	st := Stats{
		Plan: PlanCounters{
			FullScans:    db.fullScans.Load(),
			EqScans:      db.eqScans.Load(),
			RangeScans:   db.rangeScans.Load(),
			OrderedScans: db.orderedScans.Load(),
			MinMaxIndex:  db.minMaxFast.Load(),
			Compiled:     db.compiledSel.Load(),
			HashJoins:    db.hashJoins.Load(),
			IndexJoins:   db.indexJoins.Load(),
			NestedLoops:  db.nestedLoops.Load(),
		},
		Cache:                db.pager.stats(),
		BusyNanos:            db.busyNanos.Load(),
		CheckpointPauseNanos: db.ckptPauseNanos.Load(),
		LastCheckpointBytes:  db.lastCkptBytes.Load(),
	}
	for _, t := range db.tables {
		st.SizeBytes += t.SizeBytes()
	}
	if db.wal != nil {
		st.WAL = WALStats{
			Batches:     db.wal.batches.Load(),
			Bytes:       db.wal.bytes.Load(),
			Syncs:       db.wal.syncs.Load(),
			Checkpoints: db.checkpoints,
		}
		st.DiskBytes = db.wal.size.Load() + db.pager.diskBytes.Load()
	}
	return st
}

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
		pending:  make(map[uint64][]byte),
		decided:  make(map[uint64]struct{}),
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

// RowCount reports the live rows of the named table, 0 for a table that
// does not exist. Unlike Table(name).RowCount it reads under db.mu, so it
// races no writer.
func (db *DB) RowCount(name string) int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if t := db.tables[name]; t != nil {
		return t.live
	}
	return 0
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
func (db *DB) SizeBytes() int { return db.Stats().SizeBytes }

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
// transaction state: reads, and writes and DDL as one-statement
// transactions (DDL is durable at once, so a client ROLLBACK cannot discard
// it). Transaction delimiters are rejected; they only make sense on a
// session.
func (db *DB) execStateless(st sqlparser.Statement, meta []byte, params []Value) (*Result, error) {
	defer db.trackBusy(time.Now())
	switch s := st.(type) {
	case *sqlparser.SelectStmt:
		db.mu.RLock()
		defer db.mu.RUnlock()
		return db.execSelect(nil, s, nil, params)
	case *sqlparser.InsertStmt, *sqlparser.UpdateStmt, *sqlparser.DeleteStmt,
		*sqlparser.CreateTableStmt, *sqlparser.CreateIndexStmt, *sqlparser.DropTableStmt:
		return db.autocommit(st, meta, params)
	case *sqlparser.BeginStmt, *sqlparser.CommitStmt, *sqlparser.RollbackStmt:
		return nil, fmt.Errorf("sqldb: transaction statements require a session")
	case *sqlparser.PrincTypeStmt:
		// Principal declarations are proxy metadata; the DBMS ignores
		// them (they never reach a real server in CryptDB either).
		return &Result{}, nil
	}
	return nil, fmt.Errorf("sqldb: unsupported statement %T", st)
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

// checkDDL refuses a CREATE TABLE, CREATE INDEX or DROP TABLE that could
// not apply: against the tables as txn sees them while it stages, and
// against the shared tables at apply (applied), once txn's row writes are
// in them. A UNIQUE index is checked over the rows so seen, so a list whose
// own writes make a column hold a value twice is refused before it commits.
// After the check at apply passes, only a page fault stops applyDDL.
// Callers hold db.mu.
func (txn *Txn) checkDDL(st sqlparser.Statement, applied bool) error {
	db := txn.db
	switch s := st.(type) {
	case *sqlparser.CreateTableStmt:
		if _, exists := db.tables[s.Name]; exists {
			return fmt.Errorf("sqldb: table %s already exists", s.Name)
		}
		seen := make(map[string]bool, len(s.Cols))
		for _, c := range s.Cols {
			if seen[c.Name] {
				return fmt.Errorf("sqldb: duplicate column %s.%s", s.Name, c.Name)
			}
			seen[c.Name] = true
		}
		return nil
	case *sqlparser.CreateIndexStmt:
		t, ok := db.tables[s.Table]
		if !ok {
			return fmt.Errorf("sqldb: no table %s", s.Table)
		}
		if _, err := indexBuilds(s); err != nil {
			return err
		}
		pos := t.ColumnIndex(s.Column)
		if pos < 0 {
			return fmt.Errorf("sqldb: no column %s.%s to index", t.Name, s.Column)
		}
		if !s.Unique || t.indexes[s.Column] != nil {
			return nil // building a hash index that exists is a no-op
		}
		var ws *txnTable
		if !applied {
			ws = txn.writeSet(t)
		}
		seen := make(map[string]struct{})
		return access{kind: accessScan, ws: ws}.iterate(t, func(_ int, row []Value) error {
			key := row[pos].Key()
			if _, dup := seen[key]; dup {
				return fmt.Errorf("%w on %s.%s", ErrUniqueDuplicate, t.Name, s.Column)
			}
			seen[key] = struct{}{}
			return nil
		})
	case *sqlparser.DropTableStmt:
		if _, ok := db.tables[s.Name]; !ok {
			return fmt.Errorf("sqldb: no table %s", s.Name)
		}
		// An open transaction's commit would otherwise apply to an
		// orphaned Table and write redo records for a name replay cannot
		// resolve.
		for other := range db.openTxns {
			if other != txn && other.writes(s.Name) {
				return fmt.Errorf("sqldb: cannot drop %s: written by an open transaction", s.Name)
			}
		}
		return nil
	}
	return fmt.Errorf("sqldb: unsupported statement %T", st)
}

// indexBuild is one index a CREATE INDEX builds.
type indexBuild struct{ unique, ordered bool }

// indexBuilds lists the indexes a CREATE INDEX builds, in build order.
// MySQL's default index is a B-tree serving both equality and range; this
// substrate splits that into a hash index plus an ordered index. A UNIQUE
// BTREE enforces uniqueness through a hash index, since the ordered index
// only accelerates ranges.
func indexBuilds(s *sqlparser.CreateIndexStmt) ([]indexBuild, error) {
	switch strings.ToUpper(s.Using) {
	case "":
		return []indexBuild{{unique: s.Unique}, {ordered: true}}, nil
	case "HASH":
		return []indexBuild{{unique: s.Unique}}, nil
	case "BTREE", "ORDERED":
		if s.Unique {
			return []indexBuild{{unique: true}, {ordered: true}}, nil
		}
		return []indexBuild{{ordered: true}}, nil
	}
	return nil, fmt.Errorf("sqldb: unknown index type %q", s.Using)
}

// applyDDL applies one DDL statement that checkDDL passed, appending its
// redo records to ops when the database is logged. Callers hold db.mu's
// write side.
func (db *DB) applyDDL(st sqlparser.Statement, ops []byte) ([]byte, error) {
	switch s := st.(type) {
	case *sqlparser.CreateTableStmt:
		cols := make([]Column, len(s.Cols))
		for i, c := range s.Cols {
			cols[i] = Column{Name: c.Name, Type: c.Type, Primary: c.Primary}
		}
		if err := db.createTable(s.Name, cols); err != nil {
			return ops, err
		}
	case *sqlparser.CreateIndexStmt:
		t := db.tables[s.Table]
		builds, _ := indexBuilds(s) // checked
		for _, b := range builds {
			var err error
			if b.ordered {
				err = t.addOrdIndex(s.Column)
			} else {
				err = t.addIndex(s.Column, b.unique)
			}
			if err != nil {
				return ops, err
			}
		}
	case *sqlparser.DropTableStmt:
		db.pager.forgetTable(db.tables[s.Name])
		delete(db.tables, s.Name)
	}
	if db.wal != nil {
		ops = ddlRedo(ops, st)
	}
	return ops, nil
}

// ddlRedo appends the redo records of one DDL statement that checkDDL
// passed: what applyDDL applies, and what replay applies.
func ddlRedo(ops []byte, st sqlparser.Statement) []byte {
	switch s := st.(type) {
	case *sqlparser.CreateTableStmt:
		defs := make([]walColDef, len(s.Cols))
		for i, c := range s.Cols {
			defs[i] = walColDef{name: c.Name, typ: c.Type, primary: c.Primary}
		}
		ops = appendCreateTableOp(ops, s.Name, defs)
	case *sqlparser.CreateIndexStmt:
		builds, _ := indexBuilds(s) // checked
		for _, b := range builds {
			ops = appendCreateIndexOp(ops, s.Table, s.Column, b.unique, b.ordered)
		}
	case *sqlparser.DropTableStmt:
		ops = appendDropTableOp(ops, s.Name)
	}
	return ops
}

// createTable installs an empty table with its PRIMARY KEY indexes.
// Callers hold db.mu's write side.
func (db *DB) createTable(name string, cols []Column) error {
	t := newTable(name, cols, db.pager)
	for _, c := range cols {
		if c.Primary {
			if err := t.addIndex(c.Name, true); err != nil {
				return err
			}
		}
	}
	db.tables[name] = t
	return nil
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

// ExecAutonomous executes a write or DDL statement outside any open
// transaction, as if on a separate connection that commits immediately, so
// a client ROLLBACK cannot undo it. The proxy commits through the list form
// (ExecAutonomousListWithMeta); the single store's ExecAutonomous is this
// one. The statement still executes atomically under the
// database lock; if it touches a row slot owned by an open transaction it fails
// with a WriteConflictError rather than waiting (first writer wins, and
// blocking here could deadlock against the transaction's own next
// statement).
func (db *DB) ExecAutonomous(st sqlparser.Statement, params ...Value) (*Result, error) {
	return db.execStateless(st, nil, params)
}

// ExecAutonomousWithMeta combines ExecAutonomous and ExecWithMeta: the
// statement commits outside any open transaction, and the metadata blob
// commits durably in the same WAL batch.
func (db *DB) ExecAutonomousWithMeta(st sqlparser.Statement, meta []byte, params ...Value) (*Result, error) {
	return db.execStateless(st, meta, params)
}

// ExecAutonomousListWithMeta is ExecAutonomousWithMeta for a list of
// INSERT, UPDATE, DELETE, CREATE TABLE, CREATE INDEX and DROP TABLE
// statements: they stage in a private transaction, outside any open one
// (Session.Stage), and commit with the metadata blob in one WAL batch, or
// not at all. The DDL applies after the row writes, in list order. The
// proxy commits every schema change and onion adjustment of a statement
// with it, so a column's new ciphertexts, the indexes its exposed layers
// allow and the metadata naming both are one commit. The empty list
// commits the blob alone, in a batch of its one metadata record.
func (db *DB) ExecAutonomousListWithMeta(stmts []sqlparser.Statement, meta []byte) (*Result, error) {
	s := db.NewSession()
	defer s.Close() //nolint:errcheck // rolls back a transaction a statement refused
	if _, err := s.Exec(&sqlparser.BeginStmt{}); err != nil {
		return nil, err
	}
	total := &Result{}
	for _, st := range stmts {
		res, err := s.Stage(st)
		if err != nil {
			return nil, err
		}
		total.Affected += res.Affected
	}
	if _, err := s.ExecWithMeta(&sqlparser.CommitStmt{}, meta); err != nil {
		return nil, err
	}
	return total, nil
}
