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
// scatter, and autonomous single-row writes are refused rather than
// guessed.
//
// DDL and schema are broadcast to every shard; sealed proxy metadata rides
// each shard's WAL exactly as in the single store, wrapped in a sequence
// envelope so recovery can pick the newest blob across shards (a routed
// write commits its blob only on its own shard, leaving the others one
// version behind).
//
// A read that cannot be routed runs a per-shard statement on every shard in
// parallel, and shard 0's compiled pipeline runs a coordinator statement
// over the rows they return (scatter.go): ORDER BY and LIMIT push down to
// each shard's ordered (OPE) indexes, aggregates push down as partials
// that the coordinator merges (an aggregate UDF — Paillier hom_sum — is
// re-applied to its partials, which is exactly a product of partial
// products), and joins run over each table's filtered rows. The SQL
// semantics of a cross-shard read are therefore sqldb's own.
//
// Transactions are single-shard: a transaction pins itself to the first
// shard it writes, and a statement that routes elsewhere fails with a
// clear error instead of silently spanning shards without atomicity.
package sharded

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
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
	groupPushdowns int64

	// metaMu serializes metadata-carrying commits so the sequence
	// envelope order matches WAL order on every shard.
	metaMu  sync.Mutex
	metaSeq uint64
	meta    []byte

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

// DirShards reports whether a data directory holds a sharded store, and
// the shard count its manifest pins. Operators' startup code consults it
// so a sharded directory cannot be reopened as a single store by
// forgetting the shard flag (or vice versa). A directory that *looks*
// sharded but cannot be trusted — corrupt manifest, or shard
// subdirectories with the manifest missing — returns ok=true with n=0:
// callers must then route to Open, which fails loudly instead of letting
// a single-store open beside the shards silently serve an empty database.
func DirShards(dir string) (n int, ok bool) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		if _, serr := os.Stat(ShardDir(dir, 0)); serr == nil {
			return 0, true // shard dirs without a manifest: sharded, count unknown
		}
		return 0, false
	}
	var m manifest
	if json.Unmarshal(data, &m) != nil || m.Version != 1 || m.Shards < 1 {
		return 0, true // present but corrupt: sharded, count unknown
	}
	return m.Shards, true
}

// Open creates or reopens a durable sharded engine rooted at dir, with one
// sqldb data directory per shard (shard-000/, shard-001/, ...). n is the
// shard count for a fresh directory; reopening an existing one requires n
// to match the directory's manifest (pass 0 to accept whatever it says).
// Every shard recovers independently — manifest load, WAL replay, torn
// tail truncation — then schemas are reconciled: a shard that crashed
// before a broadcast CREATE TABLE/INDEX reached it gets the missing DDL
// re-applied (its torn rows stay lost, exactly like a torn tail in the
// single store).
func Open(dir string, n int, opts sqldb.DurabilityOptions) (*Engine, error) {
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, fmt.Errorf("sharded: creating data dir: %w", err)
	}
	mpath := filepath.Join(dir, manifestName)
	if data, err := os.ReadFile(mpath); err == nil {
		var m manifest
		if err := json.Unmarshal(data, &m); err != nil || m.Version != 1 || m.Shards < 1 {
			return nil, fmt.Errorf("sharded: corrupt manifest %s", mpath)
		}
		if n == 0 {
			n = m.Shards
		}
		if n != m.Shards {
			return nil, fmt.Errorf("sharded: data dir has %d shards, requested %d (rows are placed by hash; the count cannot change)", m.Shards, n)
		}
	} else if !os.IsNotExist(err) {
		return nil, err
	} else {
		if _, serr := os.Stat(ShardDir(dir, 0)); serr == nil {
			// Shard directories without a manifest: the manifest was lost,
			// not never written. Re-pinning a caller-supplied count here
			// would silently open a subset of the shards and misroute
			// every row; refuse and make the operator restore it.
			return nil, fmt.Errorf("sharded: %s has shard directories but no readable %s — restore the manifest (it pins the shard count)", dir, manifestName)
		}
		if n < 1 {
			return nil, fmt.Errorf("sharded: shard count must be >= 1 for a fresh data dir")
		}
		data, err := json.MarshalIndent(manifest{Version: 1, Shards: n}, "", "  ")
		if err != nil {
			return nil, fmt.Errorf("sharded: encoding manifest: %w", err)
		}
		// Durable install, not just atomic: the manifest pins the shard
		// count, and a crash that leaves it empty or unsynced misroutes
		// every row on the next open.
		if err := fsutil.InstallFile(mpath, data, 0o600); err != nil {
			return nil, fmt.Errorf("sharded: installing manifest: %w", err)
		}
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
	if err := e.reconcileSchemas(); err != nil {
		return nil, err
	}
	e.recoverMeta()
	ok = true
	return e, nil
}

// reconcileSchemas repairs DDL that a crash mid-broadcast left half
// applied. Broadcasts run shard 0 first, so the direction of the torn
// statement is readable from shard 0: a table present there but missing on
// later shards is a torn CREATE (re-apply it, with indexes, to the shards
// that lack it); a table missing on shard 0 but present later is a torn
// DROP (finish dropping it everywhere) — resurrecting it would silently
// serve a subset of its rows. Rows are never copied either way — a shard
// that lost committed rows to a torn WAL tail stays short, the same
// fail-open contract as the single store's torn tail. (Residual ambiguity:
// a torn tail on shard 0 that swallowed a CREATE reads as a torn DROP;
// shard 0's log is treated as the authority.)
func (e *Engine) reconcileSchemas() error {
	union := make(map[string]*sqldb.DB) // table -> donor shard
	for _, sh := range e.shards {
		for _, name := range sh.TableNames() {
			if _, seen := union[name]; !seen {
				union[name] = sh
			}
		}
	}
	for name, donor := range union {
		if e.shards[0].Table(name) == nil {
			// Torn DROP: shard 0 already dropped it; complete the
			// broadcast on the shards the crash skipped.
			drop := &sqlparser.DropTableStmt{Name: name}
			for _, sh := range e.shards {
				if sh.Table(name) == nil {
					continue
				}
				if _, err := sh.ExecAutonomous(drop); err != nil {
					return fmt.Errorf("sharded: completing torn DROP of %s: %w", name, err)
				}
			}
			continue
		}
		for _, sh := range e.shards {
			if sh.Table(name) != nil {
				continue
			}
			if err := replaySchema(donor, sh, name); err != nil {
				return fmt.Errorf("sharded: reconciling table %s: %w", name, err)
			}
		}
	}
	return nil
}

// replaySchema re-creates one table (columns, PRIMARY KEY flag, indexes —
// never rows) on sh, copying the schema from donor.
func replaySchema(donor, sh *sqldb.DB, name string) error {
	dt := donor.Table(name)
	if dt == nil {
		return fmt.Errorf("donor lost table %s", name)
	}
	create := &sqlparser.CreateTableStmt{Name: name}
	for _, c := range dt.Cols {
		create.Cols = append(create.Cols, sqlparser.ColumnDef{
			Name: c.Name, Type: c.Type, Primary: c.Primary,
		})
	}
	if _, err := sh.ExecAutonomous(create); err != nil {
		return err
	}
	for _, ix := range dt.Indexes() {
		using := "HASH"
		if ix.Ordered {
			using = "BTREE"
		}
		st := &sqlparser.CreateIndexStmt{
			Table: name, Column: ix.Column, Unique: ix.Unique, Using: using,
		}
		if _, err := sh.ExecAutonomous(st); err != nil {
			return fmt.Errorf("index on %s.%s: %w", name, ix.Column, err)
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

// SetMeta implements store.Engine: the blob commits durably on every
// shard, each in its own WAL batch, under one envelope sequence.
func (e *Engine) SetMeta(meta []byte) error {
	e.metaMu.Lock()
	defer e.metaMu.Unlock()
	wrapped := e.wrapNext(meta)
	for i, sh := range e.shards {
		if err := sh.SetMeta(wrapped); err != nil {
			return fmt.Errorf("sharded: shard %d: %w", i, err)
		}
	}
	e.meta = append([]byte(nil), meta...)
	return nil
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

// routeSingleInsert is the allocation-free fast path for the dominant
// one-row INSERT shape: it returns the target shard without building the
// per-shard split. ok=false means the statement has 0 or 2+ rows.
func (e *Engine) routeSingleInsert(s *sqlparser.InsertStmt, params []sqldb.Value) (int, bool, error) {
	if len(s.Rows) != 1 {
		return 0, false, nil
	}
	cols := e.tableCols(s.Table)
	if cols == nil {
		return 0, false, fmt.Errorf("sqldb: no table %s", s.Table)
	}
	col := e.routeCol(s.Table)
	shard, err := e.routeRow(s, s.Rows[0], e.routePos(s, cols, col), col, params)
	return shard, true, err
}

// splitInsert partitions an INSERT's rows by shard. Row order within each
// shard statement is preserved.
func (e *Engine) splitInsert(s *sqlparser.InsertStmt, params []sqldb.Value) (map[int]*sqlparser.InsertStmt, error) {
	cols := e.tableCols(s.Table)
	if cols == nil {
		return nil, fmt.Errorf("sqldb: no table %s", s.Table)
	}
	col := e.routeCol(s.Table)
	pos := e.routePos(s, cols, col)
	out := make(map[int]*sqlparser.InsertStmt)
	for _, row := range s.Rows {
		shard, err := e.routeRow(s, row, pos, col, params)
		if err != nil {
			return nil, err
		}
		st := out[shard]
		if st == nil {
			st = &sqlparser.InsertStmt{Table: s.Table, Columns: s.Columns}
			out[shard] = st
		}
		st.Rows = append(st.Rows, row)
	}
	return out, nil
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
// DDL broadcast
//

// execDDL broadcasts a schema statement to every shard in order (shard 0
// first — recovery's torn-broadcast disambiguation depends on it). A
// sealed metadata blob (one envelope sequence) commits with the statement
// on each shard's WAL, preserving the single store's schema/metadata
// atomicity per shard; recovery reconciles shards a crash left behind.
//
// A runtime refusal must not diverge the shards the way a crash may:
// DROP pre-flights every shard (the single store's "written by an open
// transaction" refusal becomes a whole-broadcast refusal with no side
// effects), and a mid-broadcast failure of CREATE/DROP is compensated by
// undoing (or re-creating the schema of) the already-applied prefix. The
// compensation cannot restore rows a racing refusal made DROP delete on
// earlier shards — that window is the pre-flight's race and is narrow;
// an index creation that fails mid-broadcast (per-shard unique violation)
// leaves the index present on the prefix shards, which affects access
// paths and per-shard unique enforcement only.
func (e *Engine) execDDL(st sqlparser.Statement, meta []byte) (*sqldb.Result, error) {
	if drop, ok := st.(*sqlparser.DropTableStmt); ok {
		for _, sh := range e.shards {
			if err := sh.CanDropTable(drop.Name); err != nil {
				return nil, err
			}
		}
	}
	return e.withMeta(meta, func(wrapped []byte) (*sqldb.Result, error) {
		var res *sqldb.Result
		for i, sh := range e.shards {
			r, err := sh.ExecAutonomousWithMeta(st, wrapped)
			if err != nil {
				if i > 0 {
					e.compensateDDL(st, i)
					err = fmt.Errorf("sharded: DDL failed on shard %d of %d (applied prefix rolled back): %w", i, len(e.shards), err)
				}
				return r, err
			}
			res = r
		}
		return res, nil
	})
}

// compensateDDL undoes the prefix shards 0..failed-1 of a half-applied
// CREATE/DROP broadcast, best effort.
func (e *Engine) compensateDDL(st sqlparser.Statement, failed int) {
	switch s := st.(type) {
	case *sqlparser.CreateTableStmt:
		drop := &sqlparser.DropTableStmt{Name: s.Name}
		for i := 0; i < failed; i++ {
			e.shards[i].ExecAutonomous(drop) //nolint:errcheck // best-effort undo
		}
	case *sqlparser.DropTableStmt:
		// The failing shard still holds the schema; re-create it (empty —
		// the dropped prefix rows are gone) so the shards agree again.
		for i := 0; i < failed; i++ {
			replaySchema(e.shards[failed], e.shards[i], s.Name) //nolint:errcheck // best-effort undo
		}
	}
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

// ExecAutonomous implements store.Engine. Routing is strict here (the
// satellite contract): a single-row statement goes to exactly the shard
// owning its row; whole-table rewrites (the proxy's onion adjustments)
// broadcast; an INSERT whose placement cannot be derived is refused with a
// clear error rather than written to an arbitrary shard.
func (e *Engine) ExecAutonomous(st sqlparser.Statement, params ...sqldb.Value) (*sqldb.Result, error) {
	return e.execAutonomous(st, nil, params)
}

// ExecAutonomousWithMeta implements store.Engine.
func (e *Engine) ExecAutonomousWithMeta(st sqlparser.Statement, meta []byte, params ...sqldb.Value) (*sqldb.Result, error) {
	return e.execAutonomous(st, meta, params)
}

func (e *Engine) execAutonomous(st sqlparser.Statement, meta []byte, params []sqldb.Value) (*sqldb.Result, error) {
	switch s := st.(type) {
	case *sqlparser.InsertStmt:
		if e.routeCol(s.Table) == "" && e.tableCols(s.Table) != nil {
			return nil, fmt.Errorf("sharded: cannot route autonomous INSERT into %s: table has no primary-key routing column", s.Table)
		}
		split, err := e.splitInsert(s, params)
		if err != nil {
			return nil, err
		}
		if len(split) > 1 {
			return nil, fmt.Errorf("sharded: autonomous multi-row INSERT into %s spans %d shards; split it per row", s.Table, len(split))
		}
		for shard, st := range split {
			return e.shardExecAutonomous(shard, st, meta, params)
		}
		return &sqldb.Result{}, nil // zero rows
	case *sqlparser.UpdateStmt:
		if e.assignsRouteCol(s) {
			return nil, fmt.Errorf("sharded: UPDATE must not modify routing column of %s (rows are placed by its hash)", s.Table)
		}
		if shard, ok := e.routeWhere(s.Table, s.Where, params); ok {
			return e.shardExecAutonomous(shard, st, meta, params)
		}
		return e.broadcastAutonomous(st, meta, params)
	case *sqlparser.DeleteStmt:
		if shard, ok := e.routeWhere(s.Table, s.Where, params); ok {
			return e.shardExecAutonomous(shard, st, meta, params)
		}
		return e.broadcastAutonomous(st, meta, params)
	case *sqlparser.SelectStmt:
		return e.defaultConn().execSelect(s, params)
	case *sqlparser.CreateTableStmt, *sqlparser.CreateIndexStmt, *sqlparser.DropTableStmt, *sqlparser.PrincTypeStmt:
		return e.execDDL(st, meta)
	}
	return nil, fmt.Errorf("sharded: unsupported autonomous statement %T", st)
}

// shardExecAutonomous runs one autonomous statement on one shard, with the
// metadata blob (if any) wrapped and committed in the same WAL batch.
func (e *Engine) shardExecAutonomous(shard int, st sqlparser.Statement, meta []byte, params []sqldb.Value) (*sqldb.Result, error) {
	return e.withMeta(meta, func(wrapped []byte) (*sqldb.Result, error) {
		return e.shards[shard].ExecAutonomousWithMeta(st, wrapped, params...)
	})
}

// broadcastAutonomous runs a whole-table rewrite on every shard with
// runtime all-or-nothing semantics: the statement executes inside a
// private transaction per shard (buffering, taking slot locks), and only
// when every shard accepted it do the transactions commit — so a write
// conflict or constraint violation on one shard refuses the whole
// statement with no side effects, matching the single store's statement
// atomicity. (This is runtime atomicity, not crash atomicity: a crash
// between the per-shard commits leaves some shards on the old version —
// the documented torn-broadcast window; see ARCHITECTURE.md.) Each shard
// commits the identically wrapped metadata blob with its own portion.
func (e *Engine) broadcastAutonomous(st sqlparser.Statement, meta []byte, params []sqldb.Value) (*sqldb.Result, error) {
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
		total := &sqldb.Result{}
		for i, s := range sessions {
			if _, err := s.Exec(&sqlparser.BeginStmt{}); err != nil {
				return nil, err
			}
			res, err := s.ExecWithMeta(st, wrapped, params...)
			if err != nil {
				// The deferred Close rolls back every shard's buffer: the
				// statement refuses as a whole, like the single store.
				return nil, fmt.Errorf("sharded: shard %d refused the statement (no shard applied it): %w", i, err)
			}
			total.Affected += res.Affected
		}
		for i, s := range sessions {
			if _, err := s.Exec(&sqlparser.CommitStmt{}); err != nil {
				if i > 0 {
					err = fmt.Errorf("sharded: statement committed on shards 0..%d but failed to commit on shard %d: %w", i-1, i, err)
				}
				return nil, err
			}
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
	out := store.Stats{Shards: len(e.shards)}
	for _, sh := range e.shards {
		pc := sh.PlanCounters()
		out.Plan.FullScans += pc.FullScans
		out.Plan.EqScans += pc.EqScans
		out.Plan.RangeScans += pc.RangeScans
		out.Plan.OrderedScans += pc.OrderedScans
		out.Plan.MinMaxIndex += pc.MinMaxIndex
		out.Plan.Compiled += pc.Compiled
		out.Plan.Interpreted += pc.Interpreted
		out.Plan.HashJoins += pc.HashJoins
		out.Plan.NestedLoops += pc.NestedLoops
		out.Plan.DegradedJoins += pc.DegradedJoins
		out.Plan.GroupPushdowns += pc.GroupPushdowns
		ws := sh.WALStats()
		out.WAL.Batches += ws.Batches
		out.WAL.Bytes += ws.Bytes
		out.WAL.Syncs += ws.Syncs
		out.WAL.Checkpoints += ws.Checkpoints
		out.SizeBytes += sh.SizeBytes()
		out.BusyNanos += sh.BusyNanos()
		cs := sh.CacheStats()
		out.Cache.Hits += cs.Hits
		out.Cache.Misses += cs.Misses
		out.Cache.Evictions += cs.Evictions
		out.Cache.ResidentBytes += cs.ResidentBytes
		out.Cache.BudgetBytes += cs.BudgetBytes
		out.Cache.ResidentPages += cs.ResidentPages
		out.Cache.HotPages += cs.HotPages
		out.Cache.DirtyPages += cs.DirtyPages
		out.DiskBytes += sh.DiskSizeBytes()
		out.CheckpointPauseNanos += sh.CheckpointPauseNanos()
		out.LastCheckpointBytes += sh.LastCheckpointBytes()
	}
	out.Plan.GroupPushdowns += atomic.LoadInt64(&e.groupPushdowns)
	return out
}

// ResetBusyNanos implements store.Engine.
func (e *Engine) ResetBusyNanos() {
	for _, sh := range e.shards {
		sh.ResetBusyNanos()
	}
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
