// Package sharded implements store.Engine over N embedded sqldb instances
// — the horizontal partitioning the ROADMAP's "heavy traffic from millions
// of users" north star calls for. Each shard is a complete sqldb.DB with
// its own data directory, write-ahead log and group-commit cohort, so the
// per-database bottlenecks PR 4 left behind (one db.mu, one WAL file, one
// fsync stream) multiply by the shard count.
//
// Placement: rows are routed by hash of the table's routing column — the
// first PRIMARY KEY column, which for every proxy-created table is the
// hidden rid (Figure 3's data layout). A table with no primary key is
// unroutable: its rows hash over their whole content, reads always
// scatter, and the engine's autonomous INSERTs into it are refused rather
// than guessed.
//
// Writes: one router (route) places every INSERT, UPDATE and DELETE — on
// one shard when all its rows live there, otherwise in per-shard parts (an
// INSERT's rows split by shard, an unpinned UPDATE or DELETE on every
// shard). Outside a transaction a one-shard write autocommits on its
// shard, and anything else — a client's autocommit, an autonomous write or
// a statement list, DDL among them, which runs on every shard — commits
// through one commit (acrossShards). Inside a transaction a write that
// spans shards is refused: a transaction pins itself to the first shard it
// writes, and a statement that routes elsewhere fails with a clear error
// instead of silently spanning shards without atomicity.
//
// A write whose staged parts land on two or more shards commits all or
// nothing, across a crash too: every participant but the last logs its
// part as a prepared batch, the last participant's ordinary batch (the
// decider's) carries the decision, and the prepared parts are published
// after it (sqldb's prepare.go); Open resolves what a crash left prepared.
// Sealed proxy metadata rides the decider's batch alone — a one-shard
// write's own batch, and for a bare blob the last shard's — wrapped in a
// sequence envelope so recovery can pick the newest blob across shards.
//
// A read that cannot be routed runs a per-shard statement on every shard in
// parallel, and shard 0's compiled pipeline runs a coordinator statement
// over the rows they return (scatter.go): ORDER BY and LIMIT push down to
// each shard's ordered (OPE) indexes, aggregates push down as partials
// that the coordinator merges (an aggregate UDF — Paillier hom_sum — is
// re-applied to its partials, which is exactly a product of partial
// products), and joins run over each table's filtered rows. The SQL
// semantics of a cross-shard read are therefore sqldb's own.
package sharded

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/fsutil"
	"repro/internal/sqldb"
	"repro/internal/sqlparser"
	"repro/internal/store"
)

const manifestName = "sharded.json"

// manifest pins the shard count of a data directory: reopening with a
// different -shards would silently misroute every row.
type manifest struct {
	Version int `json:"version"`
	Shards  int `json:"shards"`
}

// Engine is a hash-partitioned store over N sqldb instances.
type Engine struct {
	dir    string
	shards []*sqldb.DB

	// groupPushdowns counts GROUP BY queries executed as per-shard grouped
	// partials merged by the coordinator (as opposed to feeding the table's
	// rows). Engine-level because the decision is made here, not in any one
	// shard's planner.
	groupPushdowns atomic.Int64

	// metaMu serializes metadata-carrying commits so the sequence
	// envelope order matches WAL order on every shard.
	metaMu  sync.Mutex
	metaSeq uint64
	meta    []byte

	// writeSeq numbers the writes that prepare parts (acrossShards).
	writeSeq atomic.Uint64

	// udfMu guards the names of the registered aggregate UDFs, which the
	// planner must tell from scalar calls.
	udfMu   sync.RWMutex
	aggUDFs map[string]bool

	defOnce sync.Once
	defConn *Conn
}

// New creates an in-memory sharded engine (tests, benchmarks).
func New(n int) *Engine {
	if n < 1 {
		panic("sharded: shard count must be >= 1")
	}
	e := newEngine("", n)
	for i := range e.shards {
		e.shards[i] = sqldb.New()
	}
	return e
}

func newEngine(dir string, n int) *Engine {
	return &Engine{
		dir:     dir,
		shards:  make([]*sqldb.DB, n),
		aggUDFs: make(map[string]bool),
	}
}

// ShardDir returns the data directory of one shard under dir.
func ShardDir(dir string, shard int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%03d", shard))
}

// readManifest reads the shard count dir's manifest pins. With no
// manifest it returns 0 and a nil error when the directory holds no shard
// either (a fresh directory), and an error otherwise: the manifest was
// lost, not never written.
func readManifest(dir string) (int, error) {
	mpath := filepath.Join(dir, manifestName)
	data, err := fsutil.OS.ReadFile(mpath)
	if errors.Is(err, fs.ErrNotExist) {
		if _, serr := fsutil.OS.Stat(ShardDir(dir, 0)); serr == nil {
			// Re-pinning a caller-supplied count here would silently open a
			// subset of the shards and misroute every row.
			return 0, fmt.Errorf("sharded: %s has shard directories but no readable %s — restore the manifest (it pins the shard count)", dir, manifestName)
		}
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil || m.Version != 1 || m.Shards < 1 {
		return 0, fmt.Errorf("sharded: corrupt manifest %s", mpath)
	}
	return m.Shards, nil
}

// DirShards reports whether a data directory holds a sharded store, and
// the shard count its manifest pins. Operators' startup code consults it
// so a sharded directory cannot be reopened as a single store by
// forgetting the shard flag (or vice versa). A directory that *looks*
// sharded but cannot be trusted — corrupt manifest, or shard
// subdirectories with the manifest missing — returns ok=true with n=0:
// callers must then route to Open, which fails loudly instead of letting
// a single-store open beside the shards silently serve an empty database.
func DirShards(dir string) (n int, ok bool) {
	n, err := readManifest(dir)
	return n, err != nil || n > 0
}

// Open creates or reopens a durable sharded engine rooted at dir, with one
// sqldb data directory per shard (shard-000/, shard-001/, ...). n is the
// shard count for a fresh directory; reopening an existing one requires n
// to match the directory's manifest (pass 0 to accept whatever it says).
// Every shard recovers on its own — manifest load, WAL replay, torn tail
// truncation — and then every part of a write that spans shards that a
// crash left prepared is resolved against its decider: published where the
// decider's batch recorded the decision, dropped where it did not (presumed
// abort), and the outcome logged on the part's shard. Open then checks that
// every shard holds the same tables and indexes, and refuses, naming the
// shard and the table, when they differ: with every spanning write
// committed through one decision, only a change made outside the engine,
// or a machine crash under NoFsync, can make them differ.
func Open(dir string, n int, opts sqldb.DurabilityOptions) (*Engine, error) {
	return open(dir, n, opts, true)
}

// OpenReplica is Open for a replication follower's shards: it resolves no
// prepared part, since a follower never decides — each part waits for the
// outcome its shard's stream carries — and it checks no schema, since the
// shards replay their streams independently and may stand at different
// points of one write.
func OpenReplica(dir string, n int, opts sqldb.DurabilityOptions) (*Engine, error) {
	return open(dir, n, opts, false)
}

func open(dir string, n int, opts sqldb.DurabilityOptions, primary bool) (*Engine, error) {
	if err := fsutil.OS.MkdirAll(dir, 0o700); err != nil {
		return nil, fmt.Errorf("sharded: creating data dir: %w", err)
	}
	pinned, err := readManifest(dir)
	switch {
	case err != nil:
		return nil, err
	case pinned == 0 && n < 1:
		return nil, fmt.Errorf("sharded: shard count must be >= 1 for a fresh data dir")
	case pinned == 0:
		data, err := json.MarshalIndent(manifest{Version: 1, Shards: n}, "", "  ")
		if err != nil {
			return nil, fmt.Errorf("sharded: encoding manifest: %w", err)
		}
		// Durable install, not just atomic: the manifest pins the shard
		// count, and a crash that leaves it empty or unsynced misroutes
		// every row on the next open.
		if err := fsutil.InstallFile(fsutil.OS, filepath.Join(dir, manifestName), data, true); err != nil {
			return nil, fmt.Errorf("sharded: installing manifest: %w", err)
		}
	case n == 0:
		n = pinned
	case n != pinned:
		return nil, fmt.Errorf("sharded: data dir has %d shards, requested %d (rows are placed by hash; the count cannot change)", pinned, n)
	}

	e := newEngine(dir, n)
	ok := false
	defer func() {
		if !ok {
			for _, sh := range e.shards {
				if sh != nil {
					//cryptdb:vet-ok durabilityerr: best-effort teardown of partially opened shards; the open error propagates
					sh.Close()
				}
			}
		}
	}()
	for i := range e.shards {
		sh, err := sqldb.Open(ShardDir(dir, i), opts)
		if err != nil {
			return nil, fmt.Errorf("sharded: opening shard %d: %w", i, err)
		}
		e.shards[i] = sh
	}
	if primary {
		if err := e.resolve(); err != nil {
			return nil, err
		}
		if err := e.checkSchemas(); err != nil {
			return nil, err
		}
	}
	// No part awaits a decision recovery read any more (a follower's
	// parts await their outcomes), so none is carried into checkpoints.
	for _, sh := range e.shards {
		for _, id := range sh.Decided() {
			sh.Forget(id)
		}
	}
	e.recoverMeta()
	ok = true
	return e, nil
}

// resolve ends every part a crash left prepared: it publishes the parts
// whose write some shard's batch decided and drops the rest, logging each
// outcome on the part's shard. The next write id is past every id recovery
// saw.
func (e *Engine) resolve() error {
	decided := make(map[uint64]bool)
	var last uint64
	for _, sh := range e.shards {
		for _, id := range sh.Decided() {
			decided[id] = true
			last = max(last, id)
		}
	}
	for i, sh := range e.shards {
		for _, id := range sh.Unresolved() {
			last = max(last, id)
			if err := sh.Resolve(id, decided[id]); err != nil {
				return fmt.Errorf("sharded: resolving the part of write %d on shard %d: %w", id, i, err)
			}
		}
	}
	e.writeSeq.Store(last)
	return nil
}

// checkSchemas refuses shards that do not hold the same tables, with the
// same columns and indexes, naming the first shard and table that differ
// from shard 0.
func (e *Engine) checkSchemas() error {
	schema := func(sh *sqldb.DB, name string) string {
		if t := sh.Table(name); t != nil {
			return fmt.Sprint(t.Cols, t.Indexes())
		}
		return "no such table"
	}
	for i, sh := range e.shards[1:] {
		for _, name := range append(e.shards[0].TableNames(), sh.TableNames()...) {
			if got, want := schema(sh, name), schema(e.shards[0], name); got != want {
				return fmt.Errorf("sharded: shard %d holds table %s as %s, shard 0 as %s; the shards were changed outside the engine", i+1, name, got, want)
			}
		}
	}
	return nil
}

// recoverMeta picks the newest metadata blob across shards. Blobs are
// committed wrapped in a sequence envelope; a shard that did not see the
// latest routed commit simply reports an older sequence.
func (e *Engine) recoverMeta() {
	for _, sh := range e.shards {
		if seq, blob, ok := unwrapMeta(sh.Meta()); ok && (e.meta == nil || seq > e.metaSeq) {
			e.metaSeq = seq
			e.meta = blob
		}
	}
}

//
// Metadata envelope
//

func wrapMeta(seq uint64, blob []byte) []byte {
	out := make([]byte, 8+len(blob))
	binary.BigEndian.PutUint64(out, seq)
	copy(out[8:], blob)
	return out
}

func unwrapMeta(wrapped []byte) (seq uint64, blob []byte, ok bool) {
	if len(wrapped) < 8 {
		return 0, nil, false
	}
	return binary.BigEndian.Uint64(wrapped), wrapped[8:], true
}

// UnwrapMeta decodes the sharded engine's metadata envelope: the sequence
// number that orders blobs across shards, and the proxy's raw blob. A
// replicated follower of a sharded primary uses it to pick the newest
// blob out of its replayed shard state, the same comparison sharded
// recovery makes.
func UnwrapMeta(wrapped []byte) (seq uint64, blob []byte, ok bool) {
	return unwrapMeta(wrapped)
}

// wrapNext allocates the next envelope sequence for blob. Callers hold
// e.metaMu across the commit that carries the wrapped blob, so envelope
// order matches WAL order.
func (e *Engine) wrapNext(blob []byte) []byte {
	e.metaSeq++
	return wrapMeta(e.metaSeq, blob)
}

// withMeta is the one place a metadata-carrying commit happens: with a
// blob, it serializes under metaMu, hands run the wrapped (enveloped)
// form, and publishes the blob as the engine's current metadata when run
// succeeds; without one, run executes directly with nil. A failed run
// burns its envelope sequence — gaps are fine, recovery only compares.
func (e *Engine) withMeta(meta []byte, run func(wrapped []byte) (*sqldb.Result, error)) (*sqldb.Result, error) {
	if meta == nil {
		return run(nil)
	}
	e.metaMu.Lock()
	defer e.metaMu.Unlock()
	res, err := run(e.wrapNext(meta))
	if err == nil {
		e.meta = append([]byte(nil), meta...)
	}
	return res, err
}

// Meta implements store.Engine.
func (e *Engine) Meta() []byte {
	e.metaMu.Lock()
	defer e.metaMu.Unlock()
	return e.meta
}

//
// Routing
//

// routeCol returns the routing column of a table: its first PRIMARY KEY
// column ("" when it has none). Derived from the schema, so it survives
// restarts without separate bookkeeping.
func (e *Engine) routeCol(table string) string {
	t := e.shards[0].Table(table)
	if t == nil {
		return ""
	}
	for _, c := range t.Cols {
		if c.Primary {
			return c.Name
		}
	}
	return ""
}

// tableCols returns a table's schema (nil if the table does not exist).
func (e *Engine) tableCols(table string) []sqldb.Column {
	if t := e.shards[0].Table(table); t != nil {
		return t.Cols
	}
	return nil
}

// shardForKey maps a routing key to a shard.
func (e *Engine) shardForKey(key string) int {
	h := fnv.New64a()
	h.Write([]byte(key))
	return int(h.Sum64() % uint64(len(e.shards)))
}

// ShardOf reports which shard owns rows of table whose routing column
// equals v. Exposed for tests and operational tooling.
func (e *Engine) ShardOf(table string, v sqldb.Value) int {
	return e.shardForKey(v.Key())
}

// conjunctsOf splits an expression on top-level ANDs.
func conjunctsOf(ex sqlparser.Expr) []sqlparser.Expr {
	if ex == nil {
		return nil
	}
	if b, ok := ex.(*sqlparser.BinaryExpr); ok && b.Op == "AND" {
		return append(conjunctsOf(b.L), conjunctsOf(b.R)...)
	}
	return []sqlparser.Expr{ex}
}

// routeWhere resolves a WHERE clause to a single shard: some conjunct must
// pin the table's routing column to a constant. names are the identifiers
// a qualified column reference may use (table name, alias).
func (e *Engine) routeWhere(table string, where sqlparser.Expr, params []sqldb.Value, names ...string) (int, bool) {
	col := e.routeCol(table)
	if col == "" || where == nil {
		return 0, false
	}
	matchRef := func(ex sqlparser.Expr) bool {
		cr, ok := ex.(*sqlparser.ColRef)
		if !ok || cr.Column != col {
			return false
		}
		if cr.Table == "" {
			return true
		}
		for _, n := range names {
			if n != "" && cr.Table == n {
				return true
			}
		}
		return cr.Table == table
	}
	for _, cj := range conjunctsOf(where) {
		b, ok := cj.(*sqlparser.BinaryExpr)
		if !ok || b.Op != "=" {
			continue
		}
		var val sqlparser.Expr
		switch {
		case matchRef(b.L):
			val = b.R
		case matchRef(b.R):
			val = b.L
		default:
			continue
		}
		v, err := sqldb.EvalConst(val, params)
		if err != nil || v.IsNull() {
			continue
		}
		return e.shardForKey(v.Key()), true
	}
	return 0, false
}

// routePos finds the position of the routing column within an INSERT's
// column list (or the schema order), -1 when absent.
func (e *Engine) routePos(s *sqlparser.InsertStmt, cols []sqldb.Column, col string) int {
	if col == "" {
		return -1
	}
	if len(s.Columns) == 0 {
		for i, c := range cols {
			if c.Name == col {
				return i
			}
		}
		return -1
	}
	for i, c := range s.Columns {
		if c == col {
			return i
		}
	}
	return -1
}

// routeRow computes the shard for one INSERT row. With a routing column
// its constant value decides placement (a row that omits the column routes
// by NULL); without one the whole row's content hashes, so placement is at
// least deterministic.
func (e *Engine) routeRow(s *sqlparser.InsertStmt, row []sqlparser.Expr, pos int, col string, params []sqldb.Value) (int, error) {
	if pos >= 0 && pos < len(row) {
		v, err := sqldb.EvalConst(row[pos], params)
		if err != nil {
			return 0, fmt.Errorf("sharded: cannot route INSERT into %s: routing column %s is not a constant: %w", s.Table, col, err)
		}
		return e.shardForKey(v.Key()), nil
	}
	key := ""
	for _, ex := range row {
		if v, err := sqldb.EvalConst(ex, params); err == nil {
			key += v.Key() + "\x1f"
		} else {
			key += ex.String() + "\x1f"
		}
	}
	return e.shardForKey(key), nil
}

// A placement is where one write runs: on one shard (parts nil), or as
// parts[i] on each shard i that has a part (nil where it has none).
type placement struct {
	shard int
	parts []sqlparser.Statement
}

// on returns the part of st that runs on shard i, nil if none does.
func (pl placement) on(i int, st sqlparser.Statement) sqlparser.Statement {
	switch {
	case pl.parts != nil:
		return pl.parts[i]
	case i == pl.shard:
		return st
	}
	return nil
}

// route places one INSERT, UPDATE or DELETE, or one CREATE TABLE, CREATE
// INDEX or DROP TABLE. A statement whose rows all live on one shard gets
// that shard, without allocating: an INSERT whose rows route alike, an
// UPDATE or DELETE whose WHERE pins the routing column. Any other gets its
// per-shard parts: an INSERT's rows split by shard (in order), an unpinned
// UPDATE or DELETE, and DDL, on every shard. On more than one shard a
// UNIQUE index is refused unless it is on the routing column: each shard
// would check only its own rows.
func (e *Engine) route(st sqlparser.Statement, params []sqldb.Value) (placement, error) {
	var table string
	var where sqlparser.Expr
	switch s := st.(type) {
	case *sqlparser.InsertStmt:
		return e.routeInsert(s, params)
	case *sqlparser.CreateIndexStmt:
		if col := e.routeCol(s.Table); s.Unique && len(e.shards) > 1 && s.Column != col {
			why := "its rows are placed by " + col
			if col == "" {
				why = "it has no primary key, so its rows are placed by a hash of their content"
			}
			return placement{}, fmt.Errorf("sharded: CREATE UNIQUE INDEX on %s.%s refused: %s, and each shard would check the index over its own rows only", s.Table, s.Column, why)
		}
		return e.everyShard(st), nil
	case *sqlparser.CreateTableStmt, *sqlparser.DropTableStmt:
		return e.everyShard(st), nil
	case *sqlparser.UpdateStmt:
		if e.assignsRouteCol(s) {
			return placement{}, fmt.Errorf("sharded: UPDATE must not modify routing column of %s (rows are placed by its hash)", s.Table)
		}
		table, where = s.Table, s.Where
	case *sqlparser.DeleteStmt:
		table, where = s.Table, s.Where
	default:
		return placement{}, fmt.Errorf("sharded: %T is not a write", st)
	}
	if shard, ok := e.routeWhere(table, where, params); ok || len(e.shards) == 1 {
		return placement{shard: shard}, nil
	}
	return e.everyShard(st), nil
}

// everyShard places st on every shard.
func (e *Engine) everyShard(st sqlparser.Statement) placement {
	parts := make([]sqlparser.Statement, len(e.shards))
	for i := range parts {
		parts[i] = st
	}
	return placement{parts: parts}
}

// routeInsert places an INSERT's rows by routeRow.
func (e *Engine) routeInsert(s *sqlparser.InsertStmt, params []sqldb.Value) (placement, error) {
	cols := e.tableCols(s.Table)
	if cols == nil {
		return placement{}, fmt.Errorf("sqldb: no table %s", s.Table)
	}
	col := e.routeCol(s.Table)
	pos := e.routePos(s, cols, col)
	var pl placement
	for i, row := range s.Rows {
		shard, err := e.routeRow(s, row, pos, col, params)
		if err != nil {
			return placement{}, err
		}
		if i == 0 {
			pl.shard = shard
			continue
		}
		if pl.parts == nil {
			if shard == pl.shard {
				continue
			}
			// The first row off the first row's shard: split from here.
			pl.parts = make([]sqlparser.Statement, len(e.shards))
			pl.parts[pl.shard] = &sqlparser.InsertStmt{Table: s.Table, Columns: s.Columns, Rows: slices.Clip(s.Rows[:i])}
		}
		part, _ := pl.parts[shard].(*sqlparser.InsertStmt)
		if part == nil {
			part = &sqlparser.InsertStmt{Table: s.Table, Columns: s.Columns}
			pl.parts[shard] = part
		}
		part.Rows = append(part.Rows, row)
	}
	return pl, nil
}

// routeAutonomous is route for the engine's autonomous writes, which
// refuse an INSERT into a table with no primary key rather than place its
// rows by a hash of their content.
func (e *Engine) routeAutonomous(st sqlparser.Statement, params []sqldb.Value) (placement, error) {
	if s, ok := st.(*sqlparser.InsertStmt); ok && e.routeCol(s.Table) == "" && e.tableCols(s.Table) != nil {
		return placement{}, fmt.Errorf("sharded: cannot route autonomous INSERT into %s: table has no primary-key routing column", s.Table)
	}
	return e.route(st, params)
}

// assignsRouteCol reports whether an UPDATE writes the routing column —
// which would silently strand the row on its old shard, so it is refused.
func (e *Engine) assignsRouteCol(s *sqlparser.UpdateStmt) bool {
	col := e.routeCol(s.Table)
	if col == "" {
		return false
	}
	for _, a := range s.Assignments {
		if a.Column == col {
			return true
		}
	}
	return false
}

//
// Engine-level statement entry points (implicit default connection)
//

func (e *Engine) defaultConn() *Conn {
	e.defOnce.Do(func() { e.defConn = e.newConn() })
	return e.defConn
}

// NewConn implements store.Engine.
func (e *Engine) NewConn() store.Conn { return e.newConn() }

// ExecSQL implements store.Executor.
func (e *Engine) ExecSQL(sql string, params ...sqldb.Value) (*sqldb.Result, error) {
	return e.defaultConn().ExecSQL(sql, params...)
}

// Exec implements store.Executor.
func (e *Engine) Exec(st sqlparser.Statement, params ...sqldb.Value) (*sqldb.Result, error) {
	return e.defaultConn().Exec(st, params...)
}

// ExecWithMeta implements store.Executor.
func (e *Engine) ExecWithMeta(st sqlparser.Statement, meta []byte, params ...sqldb.Value) (*sqldb.Result, error) {
	return e.defaultConn().ExecWithMeta(st, meta, params...)
}

// ExecAutonomous implements store.Engine: a write commits outside any
// transaction (write), DDL commits on every shard as a one-statement list,
// and an INSERT into a table with no primary key is refused rather than
// placed by a content hash.
func (e *Engine) ExecAutonomous(st sqlparser.Statement, params ...sqldb.Value) (*sqldb.Result, error) {
	return e.execAutonomous(st, nil, params)
}

// ExecAutonomousWithMeta implements store.Engine.
func (e *Engine) ExecAutonomousWithMeta(st sqlparser.Statement, meta []byte, params ...sqldb.Value) (*sqldb.Result, error) {
	return e.execAutonomous(st, meta, params)
}

func (e *Engine) execAutonomous(st sqlparser.Statement, meta []byte, params []sqldb.Value) (*sqldb.Result, error) {
	switch s := st.(type) {
	case *sqlparser.InsertStmt, *sqlparser.UpdateStmt, *sqlparser.DeleteStmt:
		pl, err := e.routeAutonomous(st, params)
		if err != nil {
			return nil, err
		}
		return e.write(st, pl, meta, params)
	case *sqlparser.SelectStmt:
		return e.defaultConn().execSelect(s, params)
	case *sqlparser.CreateTableStmt, *sqlparser.CreateIndexStmt, *sqlparser.DropTableStmt:
		return e.ExecAutonomousListWithMeta([]sqlparser.Statement{st}, meta)
	case *sqlparser.PrincTypeStmt:
		// Proxy metadata the DBMS ignores, as sqldb does.
		return &sqldb.Result{}, nil
	}
	return nil, fmt.Errorf("sharded: unsupported autonomous statement %T", st)
}

// write commits one routed write outside any transaction: on its one
// shard, in one WAL batch with the wrapped blob, or all or nothing across
// the shards it spans (acrossShards).
func (e *Engine) write(st sqlparser.Statement, pl placement, meta []byte, params []sqldb.Value) (*sqldb.Result, error) {
	if pl.parts == nil {
		return e.withMeta(meta, func(wrapped []byte) (*sqldb.Result, error) {
			return e.shards[pl.shard].ExecAutonomousWithMeta(st, wrapped, params...)
		})
	}
	return e.acrossShards([]sqlparser.Statement{st}, []placement{pl}, meta, params)
}

// ExecAutonomousListWithMeta implements store.Engine: each statement runs
// on the shards it routes to (route; DDL on every shard), all or nothing
// (acrossShards). The empty list commits the blob alone: it is how the
// proxy persists metadata no server statement accompanies.
func (e *Engine) ExecAutonomousListWithMeta(stmts []sqlparser.Statement, meta []byte) (*sqldb.Result, error) {
	pls := make([]placement, len(stmts))
	for i, st := range stmts {
		var err error
		if pls[i], err = e.routeAutonomous(st, nil); err != nil {
			return nil, err
		}
	}
	return e.acrossShards(stmts, pls, meta, nil)
}

// acrossShards is the one commit of writes and DDL that span shards. Each
// shard stages its parts in a private transaction (Session.Stage), so a
// refusal on any shard commits nothing anywhere. The shards whose parts
// write a row or DDL take part; the last of them decides. Every other
// prepares its part, in shard order (each keeps its write lock until the
// outcome, and the ascending order keeps two such commits from waiting on
// each other); the decider commits its rows, the blob and the decision in
// one batch; then the prepared parts publish. With one participant that is
// its ordinary commit, and with none the blob commits on the last shard.
// A decider that refuses at apply drops every prepared part. A
// *sqldb.DurabilityError from it is returned as such after the parts
// publish: the write applied in memory, as on one store.
func (e *Engine) acrossShards(stmts []sqlparser.Statement, pls []placement, meta []byte, params []sqldb.Value) (*sqldb.Result, error) {
	return e.withMeta(meta, func(wrapped []byte) (*sqldb.Result, error) {
		sessions := make([]*sqldb.Session, len(e.shards))
		for i, sh := range e.shards {
			sessions[i] = sh.NewSession()
		}
		defer func() {
			for _, s := range sessions {
				//cryptdb:vet-ok durabilityerr: Close here only rolls back uncommitted buffers; commit errors surface from Exec
				s.Close() //nolint:errcheck // rolls back anything uncommitted
			}
		}()
		for _, s := range sessions {
			if _, err := s.Exec(&sqlparser.BeginStmt{}); err != nil {
				return nil, err
			}
		}
		total := &sqldb.Result{}
		for k, pl := range pls {
			for i, s := range sessions {
				part := pl.on(i, stmts[k])
				if part == nil {
					continue
				}
				res, err := s.Stage(part, params...)
				if err != nil {
					return nil, fmt.Errorf("sharded: shard %d refused the statement (no shard applied it): %w", i, err)
				}
				total.Affected += res.Affected
			}
		}
		var parts []int // the participants but the decider
		for i, s := range sessions {
			if s.Writes() {
				parts = append(parts, i)
			}
		}
		decider := len(sessions) - 1 // a bare blob's shard
		if n := len(parts); n > 0 {
			decider, parts = parts[n-1], parts[:n-1]
		}
		var id uint64 // 0: one participant, whose commit decides nothing
		if len(parts) > 0 {
			id = e.writeSeq.Add(1)
		}
		var prepared []*sqldb.Prepared
		resolve := func(commit bool) (first error) {
			for _, p := range prepared {
				if err := p.Resolve(commit); err != nil && first == nil {
					first = err
				}
			}
			return first
		}
		for _, i := range parts {
			p, err := sessions[i].Prepare(id)
			if err != nil {
				//cryptdb:vet-ok durabilityerr: an abort outcome that fails to log leaves its part unresolved, which Open drops (presumed abort)
				resolve(false)
				return nil, fmt.Errorf("sharded: shard %d refused the statement (nothing committed): %w", i, err)
			}
			prepared = append(prepared, p)
		}
		_, err := sessions[decider].CommitDeciding(id, wrapped)
		if err != nil && !errors.As(err, new(*sqldb.DurabilityError)) {
			//cryptdb:vet-ok durabilityerr: an abort outcome that fails to log leaves its part unresolved, which Open drops (presumed abort)
			resolve(false)
			return nil, fmt.Errorf("sharded: shard %d refused the statement at commit (nothing committed): %w", decider, err)
		}
		if perr := resolve(true); perr != nil {
			// The decider keeps its decision, and its checkpoints carry
			// it, for the part whose outcome may not be on disk.
			if err == nil {
				err = fmt.Errorf("sharded: the statement committed, but a shard could not publish its part: %w", perr)
			}
			return nil, err
		}
		if id != 0 {
			e.shards[decider].Forget(id)
		}
		if err != nil {
			return nil, err
		}
		return total, nil
	})
}

//
// UDFs, introspection, stats, lifecycle
//

// RegisterUDF implements store.Engine.
func (e *Engine) RegisterUDF(name string, fn sqldb.UDF) {
	for _, sh := range e.shards {
		sh.RegisterUDF(name, fn)
	}
}

// RegisterAggUDF implements store.Engine. The UDF must be decomposable
// (see store.Engine): a cross-shard aggregate re-applies it to per-shard
// partials.
func (e *Engine) RegisterAggUDF(name string, fn sqldb.AggUDF) {
	e.udfMu.Lock()
	e.aggUDFs[name] = true
	e.udfMu.Unlock()
	for _, sh := range e.shards {
		sh.RegisterAggUDF(name, fn)
	}
}

// isAggUDF reports whether name is a registered aggregate UDF.
func (e *Engine) isAggUDF(name string) bool {
	e.udfMu.RLock()
	defer e.udfMu.RUnlock()
	return e.aggUDFs[name]
}

// shardedTableInfo sums introspection across shards.
type shardedTableInfo struct {
	rows, bytes int
}

func (t shardedTableInfo) RowCount() int  { return t.rows }
func (t shardedTableInfo) SizeBytes() int { return t.bytes }

// Table implements store.Engine: row counts and sizes sum across shards.
func (e *Engine) Table(name string) store.TableInfo {
	found := false
	var info shardedTableInfo
	for _, sh := range e.shards {
		if t := sh.Table(name); t != nil {
			found = true
			info.rows += t.RowCount()
			info.bytes += t.SizeBytes()
		}
	}
	if !found {
		return nil
	}
	return info
}

// TableNames implements store.Engine (union across shards, sorted).
func (e *Engine) TableNames() []string {
	seen := make(map[string]bool)
	var names []string
	for _, sh := range e.shards {
		for _, n := range sh.TableNames() {
			if !seen[n] {
				seen[n] = true
				names = append(names, n)
			}
		}
	}
	sort.Strings(names)
	return names
}

// InTxn implements store.Engine.
func (e *Engine) InTxn() bool {
	for _, sh := range e.shards {
		if sh.InTxn() {
			return true
		}
	}
	return false
}

// Shards implements store.Engine.
func (e *Engine) Shards() int { return len(e.shards) }

// Stats implements store.Engine: every counter sums across shards, so
// callers (cryptdb-server reporting, cryptdb-bench) never silently read
// shard 0 only.
func (e *Engine) Stats() store.Stats {
	var out store.Stats
	for _, sh := range e.shards {
		out.Add(sh.Stats())
	}
	out.Plan.GroupPushdowns += e.groupPushdowns.Load()
	return out
}

// Checkpoint implements store.Engine.
func (e *Engine) Checkpoint() error {
	for i, sh := range e.shards {
		if err := sh.Checkpoint(); err != nil {
			return fmt.Errorf("sharded: checkpointing shard %d: %w", i, err)
		}
	}
	return nil
}

// Close implements store.Engine.
func (e *Engine) Close() error {
	var first error
	for i, sh := range e.shards {
		if err := sh.Close(); err != nil && first == nil {
			first = fmt.Errorf("sharded: closing shard %d: %w", i, err)
		}
	}
	return first
}

// Shard exposes one underlying sqldb instance (tests, recovery tooling).
func (e *Engine) Shard(i int) *sqldb.DB { return e.shards[i] }
