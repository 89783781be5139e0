package sharded

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/sqldb"
	"repro/internal/sqlparser"
	"repro/internal/store"
	"repro/internal/store/single"
)

func mustExec(t testing.TB, ex store.Executor, sql string, params ...sqldb.Value) *sqldb.Result {
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
		before[s] = e.Shard(s).Stats().Plan
	}
	mustExec(t, e, "UPDATE t SET v = 999 WHERE id = 7")
	home := e.ShardOf("t", sqldb.Int(7))
	for s := 0; s < 3; s++ {
		after := e.Shard(s).Stats().Plan
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

	// A multi-row INSERT that spans shards commits every row on its shard.
	multi, _ := parseOne("INSERT INTO t (id, v) VALUES (50, 7), (51, 7), (52, 7), (53, 7), (54, 7), (55, 7)")
	named := make(map[int]int)
	for id := 50; id <= 55; id++ {
		named[e.ShardOf("t", sqldb.Int(int64(id)))]++
	}
	if len(named) < 2 {
		t.Fatalf("ids 50..55 all hash to one shard; the case needs a spanning INSERT")
	}
	if res, err := e.ExecAutonomous(multi); err != nil || res.Affected != 6 {
		t.Fatalf("spanning autonomous INSERT: affected %v, err = %v; want 6 rows", res, err)
	}
	for s := 0; s < 3; s++ {
		if got := mustExec(t, e.Shard(s), "SELECT COUNT(*) FROM t WHERE v = 7").Rows[0][0].I; got != int64(named[s]) {
			t.Fatalf("shard %d holds %d of the INSERT's rows, want %d", s, got, named[s])
		}
	}
}

// TestExecAutonomousList: a statement list runs each statement on the
// shards it routes to and commits the blob with the last shard's batch
// alone; a statement one shard refuses leaves every shard and the blob as
// they were.
func TestExecAutonomousList(t *testing.T) {
	e := New(3)
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	var stmts []sqlparser.Statement
	for i := 0; i < 30; i++ {
		mustExec(t, e, fmt.Sprintf("INSERT INTO t (id, v) VALUES (%d, 0)", i))
		st, _ := parseOne(fmt.Sprintf("UPDATE t SET v = %d WHERE id = %d", i+1, i))
		stmts = append(stmts, st)
	}
	res, err := e.ExecAutonomousListWithMeta(stmts, []byte("m1"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected != 30 {
		t.Fatalf("list affected %d rows, want 30", res.Affected)
	}
	for s := 0; s < 3; s++ {
		got := mustExec(t, e.Shard(s), "SELECT COUNT(*) FROM t WHERE v = id + 1").Rows[0][0].I
		if want := int64(e.Shard(s).Table("t").RowCount()); want == 0 || got != want {
			t.Fatalf("shard %d: %d of %d rows updated", s, got, want)
		}
		_, blob, ok := unwrapMeta(e.Shard(s).Meta())
		if last := s == 2; ok != last || (last && string(blob) != "m1") {
			t.Fatalf("shard %d holds blob %q (present %v); want it on the last shard only", s, blob, ok)
		}
	}
	if string(e.Meta()) != "m1" {
		t.Fatalf("engine blob %q, want m1", e.Meta())
	}

	reset, _ := parseOne("UPDATE t SET v = 0 WHERE id = 0")
	bad, _ := parseOne("UPDATE t SET missing = 1")
	if _, err := e.ExecAutonomousListWithMeta([]sqlparser.Statement{reset, bad}, []byte("m2")); err == nil {
		t.Fatal("a list with a refused statement committed")
	}
	if n := mustExec(t, e, "SELECT COUNT(*) FROM t WHERE v = id + 1").Rows[0][0].I; n != 30 {
		t.Fatalf("the refused list changed rows: %d of 30 as before", n)
	}
	if string(e.Meta()) != "m1" {
		t.Fatalf("the refused list moved the blob to %q", e.Meta())
	}
}

// TestExecAutonomousListBlobPlacement: a list commits its blob with the
// decider's batch alone, the last shard its statements write on: the last
// shard for a list with a statement that runs on every shard (a peel or
// re-key beside pinned rows), the pinned row's shard for a list of one
// pinned statement. The other shards keep the blob they held.
func TestExecAutonomousListBlobPlacement(t *testing.T) {
	e := New(3)
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	for i := 0; i < 30; i++ {
		mustExec(t, e, fmt.Sprintf("INSERT INTO t (id, v) VALUES (%d, 0)", i))
	}
	pinned, _ := parseOne("UPDATE t SET v = 1 WHERE id = 4")
	everywhere, _ := parseOne("UPDATE t SET v = v + 10")
	blobs := func() (out []string) {
		for s := 0; s < 3; s++ {
			_, blob, _ := unwrapMeta(e.Shard(s).Meta())
			out = append(out, string(blob))
		}
		return out
	}
	home := e.ShardOf("t", sqldb.Int(4))
	pinnedWant := []string{"", "", "m1"}
	pinnedWant[home] = "m2"
	for _, c := range []struct {
		name  string
		stmts []sqlparser.Statement
		meta  string
		want  []string
	}{
		{"broadcast", []sqlparser.Statement{pinned, everywhere}, "m1", []string{"", "", "m1"}},
		{"pinned", []sqlparser.Statement{pinned}, "m2", pinnedWant},
	} {
		if _, err := e.ExecAutonomousListWithMeta(c.stmts, []byte(c.meta)); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := blobs(); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s list: shards hold blobs %q, want %q", c.name, got, c.want)
		}
		if string(e.Meta()) != c.meta {
			t.Errorf("%s list: engine blob %q, want %q", c.name, e.Meta(), c.meta)
		}
	}
	if n := mustExec(t, e, "SELECT COUNT(*) FROM t WHERE v = 10").Rows[0][0].I; n != 29 {
		t.Fatalf("%d rows at v = 10 after the broadcast list, want 29", n)
	}
}

// TestExecAutonomousListEmptyBlob: the empty list is a bare blob, and a
// bare blob commits on one shard, the last; a restart reads the newest
// blob from whichever shard holds it (TestMetaEnvelopeRecovery).
func TestExecAutonomousListEmptyBlob(t *testing.T) {
	e := New(3)
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	for _, meta := range []string{"m1", "m2"} {
		if _, err := e.ExecAutonomousListWithMeta(nil, []byte(meta)); err != nil {
			t.Fatal(err)
		}
		for s := 0; s < 3; s++ {
			want := ""
			if s == 2 {
				want = meta
			}
			if _, blob, _ := unwrapMeta(e.Shard(s).Meta()); string(blob) != want {
				t.Errorf("shard %d holds blob %q, want %q", s, blob, want)
			}
		}
		if string(e.Meta()) != meta {
			t.Errorf("engine blob %q, want %q", e.Meta(), meta)
		}
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

// TestStatsAggregation: the engine's snapshot is its shards' snapshots
// summed, plus the grouped scatters only the engine counts; it never reads
// shard 0 alone.
func TestStatsAggregation(t *testing.T) {
	e := New(4)
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	for i := 1; i <= 40; i++ {
		mustExec(t, e, fmt.Sprintf("INSERT INTO t (id, v) VALUES (%d, %d)", i, i))
	}
	mustExec(t, e, "SELECT * FROM t")                              // scatter: every shard scans
	mustExec(t, e, "SELECT v % 3, COUNT(*) FROM t GROUP BY v % 3") // one GROUP BY pushdown
	st := e.Stats()
	var want store.Stats
	for i := 0; i < e.Shards(); i++ {
		want.Add(e.Shard(i).Stats())
	}
	if got := st.Plan.GroupPushdowns - want.Plan.GroupPushdowns; got != 1 {
		t.Fatalf("engine counted %d group pushdowns, want 1", got)
	}
	want.Plan.GroupPushdowns++
	if !reflect.DeepEqual(st, want) {
		t.Fatalf("Stats = %+v\nshards sum to %+v", st, want)
	}
	if st.Plan.FullScans < 4 || st.SizeBytes <= e.Shard(0).SizeBytes() || st.BusyNanos <= 0 {
		t.Fatalf("Stats = %+v: aggregation reads one shard only?", st)
	}
	if ti := e.Table("t"); ti == nil || ti.RowCount() != 40 {
		t.Fatalf("Table introspection did not sum row counts: %+v", ti)
	}
}

// TestCrossShardJoinCounters: a cross-shard equi-join runs on the shards.
// Every shard reads its rows of the fed entry (u) once and joins the whole
// feed with its own rows of the local entry (o) once, in its compiled
// pipeline; no coordinator statement runs, so no shard counts a second
// join.
func TestCrossShardJoinCounters(t *testing.T) {
	const shards = 3
	e := New(shards)
	mustExec(t, e, "CREATE TABLE u (id INT PRIMARY KEY, grp INT)")
	mustExec(t, e, "CREATE TABLE o (id INT PRIMARY KEY, uid INT)")
	for i := 1; i <= 30; i++ {
		mustExec(t, e, fmt.Sprintf("INSERT INTO u (id, grp) VALUES (%d, %d)", i, i%4))
		mustExec(t, e, fmt.Sprintf("INSERT INTO o (id, uid) VALUES (%d, %d)", i, i%10+1))
	}
	mustExec(t, e, "INSERT INTO o (id, uid) VALUES (31, 1)") // o is the larger entry
	before := make([]sqldb.PlanCounters, shards)
	for i := range before {
		before[i] = e.Shard(i).Stats().Plan
	}
	res := mustExec(t, e, "SELECT o.id, u.grp FROM o, u WHERE o.uid = u.id")
	if len(res.Rows) != 31 {
		t.Fatalf("join returned %d rows, want 31", len(res.Rows))
	}
	for i := range before {
		after := e.Shard(i).Stats().Plan
		if got := after.HashJoins - before[i].HashJoins; got != 1 {
			t.Errorf("shard %d: HashJoins advanced by %d, want 1 (its own join, no coordinator's)", i, got)
		}
		// One read of u for the feed, one join.
		if got := after.Compiled - before[i].Compiled; got != 2 {
			t.Errorf("shard %d: Compiled advanced by %d, want 2", i, got)
		}
	}
}

// TestCrossShardJoinProbesLocalIndex: when the local entry is a join's
// build side, each shard probes that table's hash index for the fed rows
// (IndexJoins) instead of hashing its rows again, as one store does.
func TestCrossShardJoinProbesLocalIndex(t *testing.T) {
	const shards = 3
	e := New(shards)
	mustExec(t, e, "CREATE TABLE u (id INT PRIMARY KEY, grp INT)")
	mustExec(t, e, "CREATE TABLE o (id INT PRIMARY KEY, uid INT)")
	mustExec(t, e, "CREATE INDEX o_uid ON o (uid)")
	for i := 1; i <= 30; i++ {
		mustExec(t, e, fmt.Sprintf("INSERT INTO u (id, grp) VALUES (%d, %d)", i, i%4))
	}
	for i := 1; i <= 300; i++ {
		mustExec(t, e, fmt.Sprintf("INSERT INTO o (id, uid) VALUES (%d, %d)", i, i%30+1))
	}
	before := e.Stats().Plan
	res := mustExec(t, e, "SELECT u.grp, o.id FROM u JOIN o ON o.uid = u.id WHERE u.grp = 1")
	after := e.Stats().Plan
	if len(res.Rows) != 80 { // users 1, 5, …, 29, ten orders each
		t.Fatalf("join returned %d rows, want 80", len(res.Rows))
	}
	if got := after.IndexJoins - before.IndexJoins; got != shards {
		t.Errorf("IndexJoins advanced by %d, want %d: a shard hashed its orders again", got, shards)
	}
	if got := after.HashJoins - before.HashJoins; got != shards {
		t.Errorf("HashJoins advanced by %d, want %d", got, shards)
	}
}

// TestCrossShardJoinInTxn: a join inside a pinned transaction runs on the
// shards and sees the transaction's uncommitted rows in the fed entry (u)
// and in the local entry (o); other connections see them after COMMIT.
func TestCrossShardJoinInTxn(t *testing.T) {
	const shards = 3
	e := New(shards)
	mustExec(t, e, "CREATE TABLE u (id INT PRIMARY KEY, name TEXT)")
	mustExec(t, e, "CREATE TABLE o (id INT PRIMARY KEY, uid INT)")
	mustExec(t, e, "CREATE INDEX o_uid ON o (uid)")
	for i := 1; i <= 9; i++ {
		mustExec(t, e, fmt.Sprintf("INSERT INTO u (id, name) VALUES (%d, 'u%d')", i, i))
	}
	for i := 1; i <= 27; i++ {
		mustExec(t, e, fmt.Sprintf("INSERT INTO o (id, uid) VALUES (%d, %d)", i, i%9+1))
	}
	// A new user and two new orders on the new user's shard, where the
	// transaction pins: one order of the new user, one of user 2.
	const uid = 100
	pin := e.ShardOf("u", sqldb.Int(uid))
	var oids []int
	for id := 100; len(oids) < 2; id++ {
		if e.ShardOf("o", sqldb.Int(int64(id))) == pin {
			oids = append(oids, id)
		}
	}
	sql := fmt.Sprintf("SELECT u.name, o.id FROM u JOIN o ON o.uid = u.id WHERE u.id = %d OR o.id = %d", uid, oids[1])
	c := e.NewConn()
	defer c.Close()
	mustExec(t, c, "BEGIN")
	mustExec(t, c, fmt.Sprintf("INSERT INTO u (id, name) VALUES (%d, 'new')", uid))
	mustExec(t, c, fmt.Sprintf("INSERT INTO o (id, uid) VALUES (%d, %d)", oids[0], uid))
	mustExec(t, c, fmt.Sprintf("INSERT INTO o (id, uid) VALUES (%d, 2)", oids[1]))
	want := fmt.Sprintf("[[new %d] [u2 %d]]", oids[0], oids[1])
	rows := func(ex store.Executor) string {
		res := mustExec(t, ex, sql)
		sort.Slice(res.Rows, func(i, j int) bool { return res.Rows[i][1].I < res.Rows[j][1].I })
		return fmt.Sprint(res.Rows)
	}
	joins := e.Stats().Plan.HashJoins
	if got := rows(c); got != want {
		t.Fatalf("inside the transaction the join reads %s, want %s", got, want)
	}
	if got := e.Stats().Plan.HashJoins - joins; got != shards {
		t.Errorf("HashJoins advanced by %d, want %d (one per shard: the join ran on the shards)", got, shards)
	}
	if got := rows(e); got != "[]" {
		t.Fatalf("another connection reads %s before COMMIT, want nothing", got)
	}
	mustExec(t, c, "COMMIT")
	if got := rows(e); got != want {
		t.Fatalf("after COMMIT the join reads %s, want %s", got, want)
	}
}

// TestCrossShardJoinConcurrentWriters runs joins on two connections while
// two others insert into both tables: every shard reads the same feeds at
// once, and the local entry's row counts and rows change under the
// readers. Each joined row must still pair an order with its user, and the
// grouped join must count every order that has a user.
func TestCrossShardJoinConcurrentWriters(t *testing.T) {
	e := New(3)
	mustExec(t, e, "CREATE TABLE u (id INT PRIMARY KEY, grp INT)")
	mustExec(t, e, "CREATE TABLE o (id INT PRIMARY KEY, uid INT)")
	mustExec(t, e, "CREATE INDEX o_uid ON o (uid)")
	for i := 1; i <= 20; i++ {
		mustExec(t, e, fmt.Sprintf("INSERT INTO u (id, grp) VALUES (%d, %d)", i, i%3))
		mustExec(t, e, fmt.Sprintf("INSERT INTO o (id, uid) VALUES (%d, %d)", i, i))
	}
	const rounds = 40
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := e.NewConn()
			defer c.Close()
			for i := 0; i < rounds; i++ {
				id := 1000 + w*rounds + i
				for _, sql := range []string{
					fmt.Sprintf("INSERT INTO u (id, grp) VALUES (%d, %d)", id, id%3),
					fmt.Sprintf("INSERT INTO o (id, uid) VALUES (%d, %d)", id, id),
				} {
					if _, err := c.ExecSQL(sql); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := e.NewConn()
			defer c.Close()
			for i := 0; i < rounds; i++ {
				res, err := c.ExecSQL("SELECT u.id, o.uid FROM u JOIN o ON o.uid = u.id")
				if err != nil {
					t.Error(err)
					return
				}
				for _, row := range res.Rows {
					if row[0].I != row[1].I {
						t.Errorf("joined user %d with an order of user %d", row[0].I, row[1].I)
						return
					}
				}
				if _, err := c.ExecSQL("SELECT u.grp, COUNT(*) FROM u JOIN o ON o.uid = u.id GROUP BY u.grp"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	res := mustExec(t, e, "SELECT COUNT(*) FROM u JOIN o ON o.uid = u.id")
	if got, want := res.Rows[0][0].I, int64(20+2*rounds); got != want {
		t.Fatalf("after the writers the join counts %d rows, want %d", got, want)
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

	// A multi-row autocommit INSERT that one shard refuses leaves no row,
	// and the blob it carries stays uncommitted.
	if _, err := e.ExecAutonomousListWithMeta(nil, []byte("kept")); err != nil {
		t.Fatal(err)
	}
	refused := func(table, sql string, want int64) {
		t.Helper()
		st, _ := parseOne(sql)
		if _, err := e.ExecWithMeta(st, []byte("refused")); err == nil {
			t.Fatalf("%s: a row one shard refuses was accepted", sql)
		}
		if n := mustExec(t, e, "SELECT COUNT(*) FROM "+table).Rows[0][0].I; n != want {
			t.Fatalf("%s: %d rows in %s after the refusal, want %d", sql, n, table, want)
		}
		if string(e.Meta()) != "kept" {
			t.Fatalf("%s: the refused INSERT moved the blob to %q", sql, e.Meta())
		}
	}
	// With a primary key: id 1 is taken on its shard, a new id lands on
	// another.
	fresh := 13
	for e.ShardOf("t", sqldb.Int(int64(fresh))) == e.ShardOf("t", sqldb.Int(1)) {
		fresh++
	}
	refused("t", fmt.Sprintf("INSERT INTO t (id, n) VALUES (%d, 0), (1, 0)", fresh), 12)

	// Without one, a row is placed by a hash of its content, so a UNIQUE
	// index would hold per shard only: it is refused, on every shard.
	mustExec(t, e, "CREATE TABLE u (a INT, b INT)")
	if _, err := e.ExecSQL("CREATE UNIQUE INDEX u_a ON u (a)"); err == nil || !strings.Contains(err.Error(), "no primary key") {
		t.Fatalf("CREATE UNIQUE INDEX on a table with no primary key: err = %v, want the refusal", err)
	}
	for s := 0; s < 3; s++ {
		if ix := e.Shard(s).Table("u").Indexes(); len(ix) != 0 {
			t.Fatalf("the refused index left %+v on shard %d", ix, s)
		}
	}
}

// TestUniqueIndexOffRoutingKeyRefused: on more than one shard a UNIQUE
// index on a column other than the routing key is refused, since each
// shard would check it over its own rows only; two rows with one value,
// routed to different shards, are then both kept, with no constraint
// claiming otherwise. A UNIQUE index on the routing key, and any on one
// shard, is built.
func TestUniqueIndexOffRoutingKeyRefused(t *testing.T) {
	e := New(2)
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	_, err := e.ExecSQL("CREATE UNIQUE INDEX t_v ON t (v)")
	if err == nil || !strings.Contains(err.Error(), "placed by id") || !strings.Contains(err.Error(), "own rows") {
		t.Fatalf("CREATE UNIQUE INDEX t_v: err = %v, want the refusal saying why", err)
	}
	other := 2
	for e.ShardOf("t", sqldb.Int(int64(other))) == e.ShardOf("t", sqldb.Int(1)) {
		other++
	}
	mustExec(t, e, "INSERT INTO t (id, v) VALUES (1, 7)")
	mustExec(t, e, fmt.Sprintf("INSERT INTO t (id, v) VALUES (%d, 7)", other))
	if n := len(mustExec(t, e, "SELECT id FROM t WHERE v = 7").Rows); n != 2 {
		t.Fatalf("WHERE v = 7 read %d rows, want both", n)
	}
	for s := 0; s < 2; s++ {
		if ix := e.Shard(s).Table("t").Indexes(); len(ix) != 1 || ix[0].Column != "id" {
			t.Fatalf("shard %d holds indexes %+v, want the primary key's alone", s, ix)
		}
	}
	mustExec(t, e, "CREATE UNIQUE INDEX t_id ON t (id)")
	one := New(1)
	mustExec(t, one, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	mustExec(t, one, "CREATE UNIQUE INDEX t_v ON t (v)")
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
