package sharded

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/sqldb"
	"repro/internal/store"
	"repro/internal/store/single"
)

// TestCrossShardEquivalence drives one pseudo-random workload — inserts,
// routed and broadcast updates, deletes, transactions, range queries,
// ORDER BY ... LIMIT, aggregates, GROUP BY/HAVING, DISTINCT, COUNT
// (DISTINCT), an aggregate UDF and joins, one inside a transaction —
// against store/single and store/sharded at 2, 3 and 8 shards, and
// requires identical results throughout: the partitioning must be
// invisible to SQL. Both sides run sqldb's compiled pipeline (its only
// SELECT executor; sqldb's own suites hold it to the reference
// interpreter), and the counters prove the sharded side answered through
// it and pushed grouped queries down per shard instead of feeding whole
// tables to the coordinator.
func TestCrossShardEquivalence(t *testing.T) {
	for _, shards := range []int{2, 3, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dut := New(shards)
			runEquivalence(t, single.New(sqldb.New()), dut)
			pc := dut.Stats().Plan
			if pc.Compiled == 0 {
				t.Fatalf("sharded engine never ran the compiled pipeline: %+v", pc)
			}
			if pc.GroupPushdowns == 0 {
				t.Fatalf("no GROUP BY was pushed down per shard: %+v", pc)
			}
		})
	}
}

// TestScatterPostMergeShapes proves the aggregate planner keeps the
// post-merge shapes — expressions over aggregates, AVG in HAVING/ORDER BY —
// on the per-shard partial path: GroupPushdowns must advance once per
// grouped query, meaning none of them was fed whole to the coordinator. It
// also holds the merge to one store's semantics where ordering by kind
// would hide an error: MIN/MAX over values that do not compare must fail.
func TestScatterPostMergeShapes(t *testing.T) {
	eng := New(4)
	ref := single.New(sqldb.New())
	for _, sql := range []string{
		"CREATE TABLE m (id INT PRIMARY KEY, g TEXT, v INT)",
	} {
		if _, err := eng.ExecSQL(sql); err != nil {
			t.Fatal(err)
		}
		if _, err := ref.ExecSQL(sql); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		g := fmt.Sprintf("g%d", i%5)
		for _, e := range []store.Engine{eng, ref} {
			if _, err := e.ExecSQL("INSERT INTO m (id, g, v) VALUES (?, ?, ?)",
				sqldb.Int(int64(i)), sqldb.Text(g), sqldb.Int(int64(i%37))); err != nil {
				t.Fatal(err)
			}
		}
	}
	grouped := []string{
		"SELECT g, SUM(v) + COUNT(*) * 10 FROM m GROUP BY g",
		"SELECT g, AVG(v) FROM m GROUP BY g HAVING AVG(v) >= 17 ORDER BY AVG(v) DESC, g",
		"SELECT g, -SUM(v) AS neg FROM m GROUP BY g ORDER BY neg, g",
		"SELECT g FROM m GROUP BY g HAVING SUM(v) - AVG(v) > 100 ORDER BY g",
	}
	for _, sql := range grouped {
		r1, err := ref.ExecSQL(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		r2, err := eng.ExecSQL(sql)
		if err != nil {
			t.Fatalf("%s: sharded: %v", sql, err)
		}
		compareResults(t, sql, r1, r2, false)
	}
	if got := eng.Stats().Plan.GroupPushdowns; got != int64(len(grouped)) {
		t.Fatalf("GroupPushdowns = %d, want %d (a shape was not pushed down)", got, len(grouped))
	}

	// Integers on even shards, 'abc' on odd ones: every shard's partial MIN
	// and MAX succeed, but one store compares TEXT with INT and fails.
	for _, e := range []store.Engine{eng, ref} {
		if _, err := e.ExecSQL("CREATE TABLE mx (id INT PRIMARY KEY, x TEXT)"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 16; i++ {
			x := sqldb.Int(int64(i))
			if eng.ShardOf("mx", sqldb.Int(int64(i)))%2 == 1 {
				x = sqldb.Text("abc")
			}
			if _, err := e.ExecSQL("INSERT INTO mx (id, x) VALUES (?, ?)", sqldb.Int(int64(i)), x); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, sql := range []string{"SELECT MIN(x) FROM mx", "SELECT MAX(x) FROM mx"} {
		for _, e := range []store.Engine{ref, eng} {
			if res, err := e.ExecSQL(sql); err == nil || !strings.Contains(err.Error(), "cannot compare") {
				t.Fatalf("%s on %T: rows %v, err %v; want a comparison error", sql, e, res, err)
			}
		}
	}
}

func runEquivalence(t *testing.T, ref, dut store.Engine) {
	t.Helper()
	rng := rand.New(rand.NewSource(0xC0FFEE))
	groups := []string{"red", "green", "blue", "cyan"}

	both := func(sql string, params ...sqldb.Value) (*sqldb.Result, *sqldb.Result) {
		t.Helper()
		r1, err1 := ref.ExecSQL(sql, params...)
		r2, err2 := dut.ExecSQL(sql, params...)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("%s: single err=%v sharded err=%v", sql, err1, err2)
		}
		if err1 != nil {
			return nil, nil
		}
		if r1.Affected != r2.Affected {
			t.Fatalf("%s: affected %d vs %d", sql, r1.Affected, r2.Affected)
		}
		return r1, r2
	}
	mustBoth := func(sql string, params ...sqldb.Value) {
		t.Helper()
		r1, err1 := ref.ExecSQL(sql, params...)
		if err1 != nil {
			t.Fatalf("%s: %v", sql, err1)
		}
		r2, err2 := dut.ExecSQL(sql, params...)
		if err2 != nil {
			t.Fatalf("%s: sharded: %v", sql, err2)
		}
		if r1.Affected != r2.Affected {
			t.Fatalf("%s: affected %d vs %d", sql, r1.Affected, r2.Affected)
		}
	}

	// checkQuery compares one query's results and returns the sharded one
	// (an empty result when both engines refused the statement).
	checkQuery := func(sql string, ordered bool, params ...sqldb.Value) *sqldb.Result {
		t.Helper()
		r1, r2 := both(sql, params...)
		if r1 == nil {
			return &sqldb.Result{}
		}
		compareResults(t, sql, r1, r2, ordered)
		return r2
	}

	for _, e := range []store.Engine{ref, dut} {
		e.RegisterAggUDF("xsum", func() sqldb.AggState { return &xsumState{} })
	}
	mustBoth("CREATE TABLE t (id INT PRIMARY KEY, grp TEXT, val INT, pad TEXT)")
	mustBoth("CREATE INDEX t_val ON t (val)")
	mustBoth("CREATE TABLE t2 (id INT PRIMARY KEY, ref INT)")

	nextID := 0
	liveIDs := func() int { return nextID } // ids are 1..nextID, some deleted

	queries := func() {
		checkQuery("SELECT * FROM t", false)
		checkQuery("SELECT id, val FROM t WHERE val >= ? AND val < ?", false,
			sqldb.Int(int64(rng.Intn(500))), sqldb.Int(int64(500+rng.Intn(500))))
		checkQuery("SELECT id, grp, val FROM t ORDER BY val DESC, id LIMIT 7", true)
		checkQuery("SELECT id FROM t ORDER BY val, id LIMIT 5 OFFSET 3", true)
		checkQuery("SELECT MIN(val), MAX(val), COUNT(*), SUM(val) FROM t", true)
		checkQuery("SELECT AVG(val) FROM t", true)
		checkQuery("SELECT DISTINCT grp FROM t", false)
		// DISTINCT + ORDER BY over a non-projected (hidden) sort key +
		// LIMIT: the per-shard LIMIT pushdown must not starve the
		// post-merge visible-prefix dedup.
		checkQuery("SELECT DISTINCT grp FROM t ORDER BY val, id LIMIT 2", true)
		checkQuery("SELECT grp, COUNT(*), SUM(val) FROM t GROUP BY grp", false)
		checkQuery("SELECT grp, COUNT(*) AS c FROM t GROUP BY grp HAVING COUNT(*) > 2 ORDER BY c DESC, grp LIMIT 3", true)
		// Post-merge shapes: expressions over aggregates, and AVG outside
		// the select list (both decompose per shard and merge in the
		// coordinator statement).
		checkQuery("SELECT grp, SUM(val) + COUNT(*) FROM t GROUP BY grp", false)
		checkQuery("SELECT grp, SUM(val) * 2 AS s2 FROM t GROUP BY grp ORDER BY SUM(val) DESC, grp LIMIT 3", true)
		checkQuery("SELECT grp, AVG(val) AS a FROM t GROUP BY grp HAVING AVG(val) > 200 ORDER BY a DESC, grp", true)
		checkQuery("SELECT grp, AVG(val) - 1 FROM t GROUP BY grp HAVING SUM(val) + COUNT(*) > 20", false)
		checkQuery("SELECT COUNT(*) FROM t WHERE grp = ?", true, sqldb.Text(groups[rng.Intn(len(groups))]))
		// Shapes the coordinator runs as written over each table's rows.
		checkQuery("SELECT t.id, t2.id FROM t, t2 WHERE t.id = t2.ref", false)
		checkQuery("SELECT t.id, t.val, t2.id FROM t JOIN t2 ON t2.ref = t.id WHERE t.val < 700 AND t2.id > 20", false)
		checkQuery("SELECT a.id, b.id, b.grp FROM t a, t b WHERE a.grp = 'red' AND a.val = b.id", false)
		checkQuery("SELECT t.grp, SUM(t2.id), COUNT(*) FROM t JOIN t2 ON t2.ref = t.id GROUP BY t.grp HAVING SUM(t2.id) > 100", false)
		checkQuery("SELECT t.grp, xsum(t.val) FROM t, t2 WHERE t.id = t2.ref GROUP BY t.grp", false)
		checkQuery("SELECT COUNT(DISTINCT grp), COUNT(DISTINCT val) FROM t", true)
		checkQuery("SELECT grp, COUNT(DISTINCT val) FROM t GROUP BY grp", false)
		checkQuery("SELECT * FROM t ORDER BY val DESC, id LIMIT 4", true)
	}

	for step := 0; step < 400; step++ {
		switch op := rng.Intn(10); {
		case op < 3: // single-row insert
			nextID++
			mustBoth("INSERT INTO t (id, grp, val, pad) VALUES (?, ?, ?, ?)",
				sqldb.Int(int64(nextID)), sqldb.Text(groups[rng.Intn(len(groups))]),
				sqldb.Int(int64(rng.Intn(1000))), sqldb.Text("pad"))
			if rng.Intn(3) == 0 {
				mustBoth("INSERT INTO t2 (id, ref) VALUES (?, ?)",
					sqldb.Int(int64(nextID)), sqldb.Int(int64(1+rng.Intn(nextID))))
			}
		case op == 3: // multi-row insert spanning shards
			a, b, c := nextID+1, nextID+2, nextID+3
			nextID += 3
			mustBoth(fmt.Sprintf(
				"INSERT INTO t (id, grp, val, pad) VALUES (%d, 'red', %d, 'x'), (%d, 'green', %d, 'y'), (%d, 'blue', %d, 'z')",
				a, rng.Intn(1000), b, rng.Intn(1000), c, rng.Intn(1000)))
		case op == 4: // routed update by primary key
			if liveIDs() > 0 {
				mustBoth("UPDATE t SET val = ?, grp = ? WHERE id = ?",
					sqldb.Int(int64(rng.Intn(1000))), sqldb.Text(groups[rng.Intn(len(groups))]),
					sqldb.Int(int64(1+rng.Intn(liveIDs()))))
			}
		case op == 5: // broadcast update by range
			lo := rng.Intn(900)
			mustBoth("UPDATE t SET pad = ? WHERE val >= ? AND val < ?",
				sqldb.Text("upd"), sqldb.Int(int64(lo)), sqldb.Int(int64(lo+50)))
		case op == 6: // routed delete
			if liveIDs() > 0 {
				mustBoth("DELETE FROM t WHERE id = ?", sqldb.Int(int64(1+rng.Intn(liveIDs()))))
			}
		case op == 7: // broadcast delete by predicate
			lo := rng.Intn(980)
			mustBoth("DELETE FROM t WHERE val >= ? AND val < ?",
				sqldb.Int(int64(lo)), sqldb.Int(int64(lo+10)))
		case op == 8: // single-shard transaction on one row
			nextID++
			id := sqldb.Int(int64(nextID))
			mustBoth("BEGIN")
			mustBoth("INSERT INTO t (id, grp, val, pad) VALUES (?, 'cyan', ?, 'txn')",
				id, sqldb.Int(int64(rng.Intn(1000))))
			mustBoth("UPDATE t SET val = val + 1 WHERE id = ?", id)
			// A cross-shard join inside the pinned transaction sees its own
			// uncommitted rows (t2's routing key is the same id, so the same
			// shard).
			mustBoth("INSERT INTO t2 (id, ref) VALUES (?, ?)", id, id)
			if res := checkQuery("SELECT t.val, t2.id FROM t JOIN t2 ON t2.ref = t.id WHERE t.id = ?", false, id); len(res.Rows) != 1 {
				t.Fatalf("join inside the transaction: %d rows, want its own uncommitted row", len(res.Rows))
			}
			if rng.Intn(2) == 0 {
				mustBoth("COMMIT")
			} else {
				mustBoth("ROLLBACK")
			}
		default:
			queries()
		}
		if step%97 == 0 {
			queries()
		}
	}
	queries()
}

// compareResults asserts two results are equal: exactly for ordered
// queries, as multisets otherwise (scatter-gather interleaves shard rows,
// like any parallel scan would).
func compareResults(t *testing.T, sql string, a, b *sqldb.Result, ordered bool) {
	t.Helper()
	if len(a.Columns) != len(b.Columns) {
		t.Fatalf("%s: column count %d vs %d (%v vs %v)", sql, len(a.Columns), len(b.Columns), a.Columns, b.Columns)
	}
	ra, rb := renderRows(a.Rows), renderRows(b.Rows)
	if !ordered {
		sort.Strings(ra)
		sort.Strings(rb)
	}
	if len(ra) != len(rb) {
		t.Fatalf("%s: row count %d vs %d\nsingle: %v\nsharded: %v", sql, len(ra), len(rb), ra, rb)
	}
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatalf("%s: row %d differs\nsingle:  %s\nsharded: %s", sql, i, ra[i], rb[i])
		}
	}
}

func renderRows(rows [][]sqldb.Value) []string {
	out := make([]string, len(rows))
	for i, row := range rows {
		s := ""
		for _, v := range row {
			s += v.Key() + "|"
		}
		out[i] = s
	}
	return out
}
