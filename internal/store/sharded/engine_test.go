package sharded

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sqldb"
	"repro/internal/sqlparser"
	"repro/internal/store"
	"repro/internal/store/single"
)

func mustExec(t *testing.T, ex store.Executor, sql string, params ...sqldb.Value) *sqldb.Result {
	t.Helper()
	res, err := ex.ExecSQL(sql, params...)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return res
}

func parseOne(sql string) (sqlparser.Statement, error) { return sqlparser.Parse(sql) }

// TestDDLBroadcast: schema statements reach every shard.
func TestDDLBroadcast(t *testing.T) {
	e := New(4)
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	mustExec(t, e, "CREATE INDEX t_v ON t (v)")
	for i := 0; i < 4; i++ {
		tab := e.Shard(i).Table("t")
		if tab == nil {
			t.Fatalf("shard %d missing table", i)
		}
		found := false
		for _, ix := range tab.Indexes() {
			if ix.Column == "v" {
				found = true
			}
		}
		if !found {
			t.Fatalf("shard %d missing index on v", i)
		}
	}
	mustExec(t, e, "DROP TABLE t")
	for i := 0; i < 4; i++ {
		if e.Shard(i).Table("t") != nil {
			t.Fatalf("shard %d still has dropped table", i)
		}
	}
}

// TestRoutedPlacement: each row lands on exactly the shard its routing key
// hashes to, and routed point statements touch only that shard.
func TestRoutedPlacement(t *testing.T) {
	e := New(3)
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	for i := 1; i <= 50; i++ {
		mustExec(t, e, fmt.Sprintf("INSERT INTO t (id, v) VALUES (%d, %d)", i, i))
	}
	perShard := 0
	for s := 0; s < 3; s++ {
		perShard += e.Shard(s).Table("t").RowCount()
	}
	if perShard != 50 {
		t.Fatalf("rows across shards = %d, want 50", perShard)
	}
	for i := 1; i <= 50; i++ {
		want := e.ShardOf("t", sqldb.Int(int64(i)))
		res, err := e.Shard(want).ExecSQL("SELECT v FROM t WHERE id = ?", sqldb.Int(int64(i)))
		if err != nil || len(res.Rows) != 1 {
			t.Fatalf("row %d not on shard %d (err=%v rows=%d)", i, want, err, len(res.Rows))
		}
	}

	// A routed UPDATE must not touch other shards' planner counters.
	before := make([]sqldb.PlanCounters, 3)
	for s := 0; s < 3; s++ {
		before[s] = e.Shard(s).PlanCounters()
	}
	mustExec(t, e, "UPDATE t SET v = 999 WHERE id = 7")
	home := e.ShardOf("t", sqldb.Int(7))
	for s := 0; s < 3; s++ {
		after := e.Shard(s).PlanCounters()
		touched := after != before[s]
		if s == home && !touched {
			t.Fatalf("home shard %d saw no work", s)
		}
		if s != home && touched {
			t.Fatalf("routed UPDATE touched shard %d (home %d)", s, home)
		}
	}
}

// TestExecAutonomousRouting: the autonomous path routes single-row
// statements and refuses what it cannot place.
func TestExecAutonomousRouting(t *testing.T) {
	e := New(3)
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	mustExec(t, e, "CREATE TABLE nopk (a INT, b INT)")

	ins, _ := parseOne("INSERT INTO t (id, v) VALUES (11, 1)")
	if _, err := e.ExecAutonomous(ins); err != nil {
		t.Fatal(err)
	}
	home := e.ShardOf("t", sqldb.Int(11))
	if e.Shard(home).Table("t").RowCount() != 1 {
		t.Fatalf("autonomous insert missed its home shard %d", home)
	}

	// Unroutable INSERT (no primary key): refused, not silently written.
	badIns, _ := parseOne("INSERT INTO nopk (a, b) VALUES (1, 2)")
	_, err := e.ExecAutonomous(badIns)
	if err == nil || !strings.Contains(err.Error(), "cannot route") {
		t.Fatalf("unroutable autonomous INSERT: err = %v, want routing refusal", err)
	}
	for s := 0; s < 3; s++ {
		if e.Shard(s).Table("nopk").RowCount() != 0 {
			t.Fatalf("refused INSERT still wrote shard %d", s)
		}
	}

	// Single-row UPDATE routes to one shard.
	upd, _ := parseOne("UPDATE t SET v = 5 WHERE id = 11")
	if _, err := e.ExecAutonomous(upd); err != nil {
		t.Fatal(err)
	}
	res, _ := e.Shard(home).ExecSQL("SELECT v FROM t WHERE id = 11")
	if len(res.Rows) != 1 || res.Rows[0][0].I != 5 {
		t.Fatalf("routed autonomous UPDATE missed: %v", res.Rows)
	}

	// Whole-table rewrite broadcasts (the onion-adjustment shape).
	for i := 20; i < 40; i++ {
		mustExec(t, e, fmt.Sprintf("INSERT INTO t (id, v) VALUES (%d, 1)", i))
	}
	bc, _ := parseOne("UPDATE t SET v = v + 100")
	bres, err := e.ExecAutonomous(bc)
	if err != nil {
		t.Fatal(err)
	}
	if bres.Affected != 21 {
		t.Fatalf("broadcast affected %d, want 21", bres.Affected)
	}

	// Rewriting the routing column is refused: the row cannot move shards.
	mv, _ := parseOne("UPDATE t SET id = 999 WHERE id = 11")
	if _, err := e.ExecAutonomous(mv); err == nil {
		t.Fatal("UPDATE of routing column succeeded")
	}
}

// TestSingleShardTxn: transactions pin to their first written shard and
// refuse statements that route elsewhere.
func TestSingleShardTxn(t *testing.T) {
	e := New(3)
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	// Two ids on different shards.
	a, b := -1, -1
	for i := 1; i < 100 && b < 0; i++ {
		s := e.ShardOf("t", sqldb.Int(int64(i)))
		if a < 0 {
			a = i
		} else if s != e.ShardOf("t", sqldb.Int(int64(a))) {
			b = i
		}
	}
	c := e.NewConn()
	defer c.Close()
	mustExec(t, c, "BEGIN")
	mustExec(t, c, fmt.Sprintf("INSERT INTO t (id, v) VALUES (%d, 1)", a))
	if _, err := c.ExecSQL(fmt.Sprintf("INSERT INTO t (id, v) VALUES (%d, 1)", b)); err == nil ||
		!strings.Contains(err.Error(), "pinned") {
		t.Fatalf("cross-shard write inside txn: err = %v, want pin refusal", err)
	}
	// The transaction is still usable on its pinned shard and commits.
	mustExec(t, c, fmt.Sprintf("UPDATE t SET v = 2 WHERE id = %d", a))
	mustExec(t, c, "COMMIT")
	res := mustExec(t, e, "SELECT v FROM t WHERE id = ?", sqldb.Int(int64(a)))
	if len(res.Rows) != 1 || res.Rows[0][0].I != 2 {
		t.Fatalf("committed txn state wrong: %v", res.Rows)
	}

	// Rollback discards.
	mustExec(t, c, "BEGIN")
	mustExec(t, c, fmt.Sprintf("UPDATE t SET v = 77 WHERE id = %d", a))
	mustExec(t, c, "ROLLBACK")
	res = mustExec(t, e, "SELECT v FROM t WHERE id = ?", sqldb.Int(int64(a)))
	if res.Rows[0][0].I != 2 {
		t.Fatalf("rollback leaked: %v", res.Rows)
	}
}

// TestStatsAggregation: Stats sums across shards rather than reading
// shard 0.
func TestStatsAggregation(t *testing.T) {
	e := New(4)
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	for i := 1; i <= 40; i++ {
		mustExec(t, e, fmt.Sprintf("INSERT INTO t (id, v) VALUES (%d, %d)", i, i))
	}
	mustExec(t, e, "SELECT * FROM t") // scatter: every shard scans
	st := e.Stats()
	if st.Shards != 4 {
		t.Fatalf("Shards = %d", st.Shards)
	}
	var wantSize int
	var wantScans int64
	for i := 0; i < 4; i++ {
		wantSize += e.Shard(i).SizeBytes()
		wantScans += e.Shard(i).PlanCounters().FullScans
	}
	if st.SizeBytes != wantSize {
		t.Fatalf("SizeBytes = %d, want %d", st.SizeBytes, wantSize)
	}
	if st.Plan.FullScans != wantScans || wantScans < 4 {
		t.Fatalf("FullScans = %d (per-shard sum %d): aggregation reads one shard only?", st.Plan.FullScans, wantScans)
	}
	if ti := e.Table("t"); ti == nil || ti.RowCount() != 40 {
		t.Fatalf("Table introspection did not sum row counts: %+v", ti)
	}
	if got := e.Stats().BusyNanos; got <= 0 {
		t.Fatalf("BusyNanos = %d", got)
	}
	e.ResetBusyNanos()
	if got := e.Stats().BusyNanos; got != 0 {
		t.Fatalf("ResetBusyNanos left %d", got)
	}
}

// TestCrossShardJoinCounters: a cross-shard equi-join runs in shard 0's
// compiled pipeline, so its hash join and its compilation count in Stats
// next to the shards' own reads of the two tables.
func TestCrossShardJoinCounters(t *testing.T) {
	const shards = 3
	e := New(shards)
	mustExec(t, e, "CREATE TABLE u (id INT PRIMARY KEY, grp INT)")
	mustExec(t, e, "CREATE TABLE o (id INT PRIMARY KEY, uid INT)")
	for i := 1; i <= 30; i++ {
		mustExec(t, e, fmt.Sprintf("INSERT INTO u (id, grp) VALUES (%d, %d)", i, i%4))
		mustExec(t, e, fmt.Sprintf("INSERT INTO o (id, uid) VALUES (%d, %d)", i, i%10+1))
	}
	before := e.Stats().Plan
	res := mustExec(t, e, "SELECT o.id, u.grp FROM o, u WHERE o.uid = u.id")
	if len(res.Rows) != 30 {
		t.Fatalf("join returned %d rows, want 30", len(res.Rows))
	}
	after := e.Stats().Plan
	if got := after.HashJoins - before.HashJoins; got != 1 {
		t.Fatalf("HashJoins advanced by %d, want 1", got)
	}
	// One read of each table per shard, plus the coordinator statement.
	if got := after.Compiled - before.Compiled; got != 2*shards+1 {
		t.Fatalf("Compiled advanced by %d, want %d", got, 2*shards+1)
	}
}

// TestAggregateUDFRecombination: a decomposable aggregate UDF recombines
// across shards (the hom_sum shape: fold partials through the same UDF).
func TestAggregateUDFRecombination(t *testing.T) {
	e := New(3)
	e.RegisterAggUDF("xsum", func() sqldb.AggState { return &xsumState{} })
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	want := int64(0)
	for i := 1; i <= 30; i++ {
		mustExec(t, e, fmt.Sprintf("INSERT INTO t (id, v) VALUES (%d, %d)", i, i*i))
		want += int64(i * i)
	}
	res := mustExec(t, e, "SELECT xsum(v) FROM t")
	if len(res.Rows) != 1 || res.Rows[0][0].I != want {
		t.Fatalf("xsum = %v, want %d", res.Rows[0], want)
	}
	res = mustExec(t, e, "SELECT id, xsum(v) FROM t GROUP BY id ORDER BY id LIMIT 3")
	if len(res.Rows) != 3 || res.Rows[2][1].I != 9 {
		t.Fatalf("grouped xsum wrong: %v", res.Rows)
	}
}

type xsumState struct {
	sum int64
	any bool
}

func (s *xsumState) Step(args []sqldb.Value) error {
	if len(args) != 1 {
		return fmt.Errorf("xsum: want 1 arg")
	}
	if args[0].IsNull() {
		return nil
	}
	n, err := args[0].AsInt()
	if err != nil {
		return err
	}
	s.sum += n
	s.any = true
	return nil
}

func (s *xsumState) Final() (sqldb.Value, error) {
	if !s.any {
		return sqldb.Null(), nil
	}
	return sqldb.Int(s.sum), nil
}

// TestDropRefusalKeepsShardsInSync: a DROP TABLE refused because an open
// transaction wrote the table must leave the schema (and every row) intact
// on every shard — not dropped from a prefix of them.
func TestDropRefusalKeepsShardsInSync(t *testing.T) {
	e := New(3)
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	for i := 1; i <= 12; i++ {
		mustExec(t, e, fmt.Sprintf("INSERT INTO t (id, v) VALUES (%d, %d)", i, i))
	}
	c := e.NewConn()
	defer c.Close()
	mustExec(t, c, "BEGIN")
	mustExec(t, c, "INSERT INTO t (id, v) VALUES (100, 1)")
	if _, err := e.ExecSQL("DROP TABLE t"); err == nil {
		t.Fatal("DROP succeeded despite an open transaction writing the table")
	}
	for s := 0; s < 3; s++ {
		if e.Shard(s).Table("t") == nil {
			t.Fatalf("refused DROP removed the table from shard %d", s)
		}
	}
	res := mustExec(t, e, "SELECT COUNT(*) FROM t")
	if res.Rows[0][0].I != 12 {
		t.Fatalf("refused DROP lost rows: COUNT = %d", res.Rows[0][0].I)
	}
	mustExec(t, c, "COMMIT")
	mustExec(t, e, "DROP TABLE t") // now it drops everywhere
	for s := 0; s < 3; s++ {
		if e.Shard(s).Table("t") != nil {
			t.Fatalf("post-commit DROP left the table on shard %d", s)
		}
	}
}

// TestBroadcastWriteAtomicOnConflict: a broadcast UPDATE hitting a slot
// locked by a transaction on one shard must refuse as a whole — no shard
// applies it — so a retry after the conflict applies exactly once.
func TestBroadcastWriteAtomicOnConflict(t *testing.T) {
	e := New(3)
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, n INT)")
	for i := 1; i <= 12; i++ {
		mustExec(t, e, fmt.Sprintf("INSERT INTO t (id, n) VALUES (%d, 0)", i))
	}
	locker := e.NewConn()
	defer locker.Close()
	mustExec(t, locker, "BEGIN")
	mustExec(t, locker, "UPDATE t SET n = 500 WHERE id = 7") // locks id 7's slot

	if _, err := e.ExecSQL("UPDATE t SET n = n + 1"); err == nil {
		t.Fatal("broadcast UPDATE through a locked slot succeeded")
	}
	res := mustExec(t, e, "SELECT SUM(n) FROM t")
	if res.Rows[0][0].I != 0 {
		t.Fatalf("refused broadcast leaked partial increments: SUM = %d, want 0", res.Rows[0][0].I)
	}

	mustExec(t, locker, "ROLLBACK")
	r, err := e.ExecSQL("UPDATE t SET n = n + 1")
	if err != nil {
		t.Fatal(err)
	}
	if r.Affected != 12 {
		t.Fatalf("retry affected %d, want 12", r.Affected)
	}
	res = mustExec(t, e, "SELECT SUM(n) FROM t")
	if res.Rows[0][0].I != 12 { // every row exactly +1
		t.Fatalf("retry double-applied: SUM = %d, want 12", res.Rows[0][0].I)
	}
}

// TestDirShardsDetection: the manifest probe distinguishes single-store
// and untrustworthy-sharded directories from healthy ones.
func TestDirShardsDetection(t *testing.T) {
	plain := t.TempDir()
	if _, ok := DirShards(plain); ok {
		t.Fatal("empty dir read as sharded")
	}
	dir := t.TempDir()
	e, err := Open(dir, 2, sqldb.DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	if n, ok := DirShards(dir); !ok || n != 2 {
		t.Fatalf("DirShards = (%d, %v), want (2, true)", n, ok)
	}
	// Corrupt the manifest: still recognized as sharded (count unknown),
	// and Open fails loudly instead of anything silently serving empty.
	if err := os.WriteFile(filepath.Join(dir, "sharded.json"), []byte("garbage"), 0o600); err != nil {
		t.Fatal(err)
	}
	if n, ok := DirShards(dir); !ok || n != 0 {
		t.Fatalf("corrupt manifest: DirShards = (%d, %v), want (0, true)", n, ok)
	}
	if _, err := Open(dir, 0, sqldb.DurabilityOptions{}); err == nil {
		t.Fatal("Open accepted a corrupt manifest")
	}
}

// TestScatterLimitBounds runs LIMIT/OFFSET bounds at the edges of int64 and
// past the int range of a 32-bit build on two shards and on one store. The
// per-shard LIMIT is the sum of LIMIT and OFFSET; it must saturate, not wrap
// negative, and every engine must return the single store's rows.
func TestScatterLimitBounds(t *testing.T) {
	eng, ref := New(2), single.New(sqldb.New())
	for _, e := range []store.Engine{eng, ref} {
		mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
		mustExec(t, e, "INSERT INTO t (id, v) VALUES (1, 10), (2, 20), (3, 30), (4, 40), (5, 50)")
	}
	for _, tc := range []struct {
		sql     string
		ordered bool
	}{
		{"SELECT id FROM t LIMIT 9223372036854775807 OFFSET 1", false},
		{"SELECT id FROM t ORDER BY id LIMIT 9223372036854775807 OFFSET 1", true},
		{"SELECT id, v FROM t ORDER BY v DESC LIMIT 9223372036854775807 OFFSET 9223372036854775807", true},
		{"SELECT id FROM t LIMIT 4294967296", false},
		{"SELECT id FROM t ORDER BY id LIMIT 4294967296 OFFSET 2", true},
		{"SELECT id FROM t OFFSET 4294967296", true},
	} {
		want := mustExec(t, ref, tc.sql)
		got := mustExec(t, eng, tc.sql)
		if tc.ordered {
			compareResults(t, tc.sql, want, got, true)
		} else if len(got.Rows) != len(want.Rows) {
			// Without an ORDER BY, which rows an OFFSET skips depends on
			// scan order, which shards do not share with one store.
			t.Fatalf("%s: %d rows on 2 shards, %d on one store", tc.sql, len(got.Rows), len(want.Rows))
		}
	}
}
