package sqldb

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/sqlparser"
)

// renderRows flattens result rows into comparable strings via the
// type-tagged Key encoding.
func renderResultRows(res *Result) []string {
	out := make([]string, 0, len(res.Rows))
	for _, row := range res.Rows {
		var b strings.Builder
		for _, v := range row {
			b.WriteString(v.Key())
			b.WriteByte(0x1f)
		}
		out = append(out, b.String())
	}
	return out
}

// sameRows compares two results: exact order when ordered, multiset
// otherwise.
func sameRows(t *testing.T, label, query string, a, b *Result, ordered bool) {
	t.Helper()
	ra, rb := renderResultRows(a), renderResultRows(b)
	if !ordered {
		sort.Strings(ra)
		sort.Strings(rb)
	}
	if len(ra) != len(rb) {
		t.Fatalf("%s: %q: row count %d vs %d", label, query, len(ra), len(rb))
	}
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatalf("%s: %q: row %d differs:\n  %q\n  %q", label, query, i, ra[i], rb[i])
		}
	}
}

// selectBoth runs one SELECT on db through the compiled pipeline and
// through the reference interpreter (interp_test.go) and requires matching
// success/failure.
func selectBoth(t *testing.T, db *DB, sql string, params ...Value) (*Result, *Result) {
	t.Helper()
	rc, errC := db.ExecSQL(sql, params...)
	ro, errO := interpretSQL(t, db, sql, params...)
	if (errC == nil) != (errO == nil) {
		t.Fatalf("%q: compiled err=%v, interpreted err=%v", sql, errC, errO)
	}
	return rc, ro
}

// seedEquivalenceDB builds the three-table schema of the equivalence
// workload.
func seedEquivalenceDB(t *testing.T) *DB {
	t.Helper()
	db := New()
	for _, ddl := range []string{
		"CREATE TABLE t1 (id INT PRIMARY KEY, grp TEXT, a INT, b INT)",
		"CREATE INDEX t1_grp ON t1 (grp) USING HASH",
		"CREATE INDEX t1_a ON t1 (a) USING BTREE",
		"CREATE TABLE t2 (id INT PRIMARY KEY, fk INT, c INT)",
		"CREATE INDEX t2_fk ON t2 (fk) USING HASH",
		"CREATE TABLE t3 (id INT PRIMARY KEY, k1 INT, k2 INT, d INT)",
		"CREATE INDEX t3_k1 ON t3 (k1) USING HASH",
	} {
		mustExec(t, db, ddl)
	}
	return db
}

// TestCompiledEquivalence drives a join/GROUP BY-heavy random workload
// through the compiled pipeline and the reference AST interpreter and
// requires identical results at every step, with counters proving the
// compiled path (and its hash joins) actually served the queries.
func TestCompiledEquivalence(t *testing.T) {
	db := seedEquivalenceDB(t)
	r := rand.New(rand.NewSource(7))

	nullable := func(n int64, p float64) Value {
		if r.Float64() < p {
			return Null()
		}
		return Int(n)
	}
	grpVal := func() Value {
		if r.Float64() < 0.05 {
			return Null()
		}
		return Text(fmt.Sprintf("g%d", r.Intn(6)))
	}

	nextID := map[string]int64{"t1": 0, "t2": 0, "t3": 0}
	live := map[string][]int64{}
	insert := func(table string) {
		id := nextID[table]
		nextID[table]++
		live[table] = append(live[table], id)
		var sql string
		var params []Value
		switch table {
		case "t1":
			sql = "INSERT INTO t1 (id, grp, a, b) VALUES (?, ?, ?, ?)"
			params = []Value{Int(id), grpVal(), nullable(int64(r.Intn(40)), 0.1), nullable(int64(r.Intn(25)), 0.1)}
		case "t2":
			sql = "INSERT INTO t2 (id, fk, c) VALUES (?, ?, ?)"
			params = []Value{Int(id), nullable(int64(r.Intn(60)), 0.1), nullable(int64(r.Intn(15)), 0.1)}
		case "t3":
			sql = "INSERT INTO t3 (id, k1, k2, d) VALUES (?, ?, ?, ?)"
			params = []Value{Int(id), nullable(int64(r.Intn(15)), 0.1), nullable(int64(r.Intn(15)), 0.1), Int(int64(r.Intn(100)))}
		}
		mustExec(t, db, sql, params...)
	}
	tables := []string{"t1", "t2", "t3"}
	for i := 0; i < 120; i++ {
		insert(tables[i%3])
	}

	mutate := func() {
		table := tables[r.Intn(3)]
		switch r.Intn(3) {
		case 0:
			insert(table)
		case 1:
			if ids := live[table]; len(ids) > 0 {
				id := ids[r.Intn(len(ids))]
				switch table {
				case "t1":
					mustExec(t, db, "UPDATE t1 SET a = ?, grp = ? WHERE id = ?", nullable(int64(r.Intn(40)), 0.1), grpVal(), Int(id))
				case "t2":
					mustExec(t, db, "UPDATE t2 SET fk = ?, c = ? WHERE id = ?", nullable(int64(r.Intn(60)), 0.1), nullable(int64(r.Intn(15)), 0.1), Int(id))
				case "t3":
					mustExec(t, db, "UPDATE t3 SET k1 = ?, d = ? WHERE id = ?", nullable(int64(r.Intn(15)), 0.1), Int(int64(r.Intn(100))), Int(id))
				}
			}
		case 2:
			if ids := live[table]; len(ids) > 3 {
				i := r.Intn(len(ids))
				id := ids[i]
				live[table] = append(ids[:i], ids[i+1:]...)
				mustExec(t, db, fmt.Sprintf("DELETE FROM %s WHERE id = ?", table), Int(id))
			}
		}
	}

	type tmpl struct {
		sql     string
		ordered bool // result order is deterministic across both paths
		params  func() []Value
	}
	one := func(n int) func() []Value {
		return func() []Value { return []Value{Int(int64(r.Intn(n)))} }
	}
	queries := []tmpl{
		{"SELECT * FROM t1 WHERE a < ? ORDER BY id LIMIT 10", true, one(40)},
		{"SELECT id, a + b * 2, -a FROM t1 WHERE (a > ? OR b < 5) AND grp != 'g3' ORDER BY id", true, one(40)},
		{"SELECT t1.id, t2.id, t2.c FROM t1, t2 WHERE t1.id = t2.fk AND t2.c > ?", false, one(15)},
		{"SELECT t1.grp, COUNT(*), SUM(t2.c) FROM t1 JOIN t2 ON t1.id = t2.fk WHERE t1.a > ? GROUP BY t1.grp HAVING COUNT(*) > 1 ORDER BY t1.grp", true, one(40)},
		{"SELECT t3.d, t2.c FROM t2 JOIN t3 ON t2.fk = t3.k1 AND t2.c = t3.k2", false, nil},
		{"SELECT DISTINCT grp FROM t1", false, nil},
		{"SELECT t1.grp, t3.d FROM t1, t2, t3 WHERE t1.id = t2.fk AND t2.c = t3.k1 AND t1.b > ?", false, one(25)},
		{"SELECT grp, SUM(a) + COUNT(b), AVG(a) FROM t1 GROUP BY grp ORDER BY grp", true, nil},
		{"SELECT id FROM t1 WHERE a BETWEEN ? AND 30 AND grp IN ('g1', 'g2', 'g4') ORDER BY id", true, one(20)},
		{"SELECT COUNT(DISTINCT t1.grp), MIN(t2.c), MAX(t2.c) FROM t1 JOIN t2 ON t1.id = t2.fk", false, nil},
		{"SELECT COUNT(*), SUM(a) FROM t1 WHERE a > 99999", false, nil},
		{"SELECT grp, COUNT(*) AS n FROM t1 WHERE grp IS NOT NULL GROUP BY grp ORDER BY n DESC, grp", true, nil},
		{"SELECT id, grp FROM t1 WHERE grp LIKE 'g%' ORDER BY a DESC, id", true, nil},
		{"SELECT t2.fk, COUNT(*), SUM(t3.d) FROM t2 JOIN t3 ON t2.c = t3.k2 GROUP BY t2.fk ORDER BY t2.fk", true, nil},
	}

	for step := 0; step < 400; step++ {
		mutate()
		q := queries[r.Intn(len(queries))]
		var params []Value
		if q.params != nil {
			params = q.params()
		}
		rc, ro := selectBoth(t, db, q.sql, params...)
		if rc != nil && ro != nil {
			sameRows(t, fmt.Sprintf("step %d", step), q.sql, rc, ro, q.ordered)
		}
	}

	pc := db.PlanCounters()
	if pc.Compiled == 0 || pc.HashJoins == 0 {
		t.Fatalf("compiled path never engaged: %+v", pc)
	}
	t.Logf("compiled arm: %+v", pc)
}

// TestCompiledEquivalenceScatterShapes holds the compiled pipeline and the
// two index fast paths to the reference interpreter on the statement shapes
// of the sharded store's cross-shard workload (store/sharded compares
// topologies, and can no longer compare executors): multi-key ORDER BY with
// LIMIT/OFFSET, DISTINCT under a hidden sort key, expressions over
// aggregates, AVG in HAVING and ORDER BY, plus index-ordered and
// index-endpoint reads.
func TestCompiledEquivalenceScatterShapes(t *testing.T) {
	db := New()
	for _, ddl := range []string{
		"CREATE TABLE t (id INT PRIMARY KEY, grp TEXT, val INT, pad TEXT)",
		"CREATE INDEX t_val ON t (val) USING BTREE",
		"CREATE INDEX t_id ON t (id) USING BTREE",
		"CREATE TABLE t2 (id INT PRIMARY KEY, ref INT)",
	} {
		mustExec(t, db, ddl)
	}
	r := rand.New(rand.NewSource(5))
	groups := []string{"red", "green", "blue", "cyan"}
	type shape struct {
		sql     string
		ordered bool
		params  func() []Value
	}
	shapes := []shape{
		{"SELECT * FROM t", false, nil},
		{"SELECT id, val FROM t WHERE val >= ? AND val < ?", false, func() []Value {
			return []Value{Int(int64(r.Intn(500))), Int(int64(500 + r.Intn(500)))}
		}},
		{"SELECT id, grp, val FROM t ORDER BY val DESC, id LIMIT 7", true, nil},
		{"SELECT id FROM t ORDER BY val, id LIMIT 5 OFFSET 3", true, nil},
		{"SELECT MIN(val), MAX(val), COUNT(*), SUM(val) FROM t", true, nil},
		{"SELECT AVG(val) FROM t", true, nil},
		{"SELECT DISTINCT grp FROM t", false, nil},
		{"SELECT DISTINCT grp FROM t ORDER BY val, id LIMIT 2", true, nil},
		{"SELECT grp, COUNT(*), SUM(val) FROM t GROUP BY grp", false, nil},
		{"SELECT grp, COUNT(*) AS c FROM t GROUP BY grp HAVING COUNT(*) > 2 ORDER BY c DESC, grp LIMIT 3", true, nil},
		{"SELECT grp, SUM(val) + COUNT(*) FROM t GROUP BY grp", false, nil},
		{"SELECT grp, SUM(val) * 2 AS s2 FROM t GROUP BY grp ORDER BY SUM(val) DESC, grp LIMIT 3", true, nil},
		{"SELECT grp, AVG(val) AS a FROM t GROUP BY grp HAVING AVG(val) > 200 ORDER BY a DESC, grp", true, nil},
		{"SELECT grp, AVG(val) - 1 FROM t GROUP BY grp HAVING SUM(val) + COUNT(*) > 20", false, nil},
		{"SELECT COUNT(*) FROM t WHERE grp = ?", true, func() []Value { return []Value{Text(groups[r.Intn(len(groups))])} }},
		{"SELECT t.id, t2.id FROM t, t2 WHERE t.id = t2.ref", false, nil},
		// The index fast paths: an ordered walk with early termination, and
		// MIN/MAX from the index endpoints.
		{"SELECT id, val + 1 FROM t WHERE val > ? ORDER BY id DESC LIMIT 4 OFFSET 1", true, func() []Value { return []Value{Int(int64(r.Intn(600)))} }},
		{"SELECT MIN(val), MAX(val), MAX(id) FROM t", true, nil},
	}
	next := int64(0)
	for round := 0; round < 6; round++ {
		for i := 0; i < 40; i++ {
			next++
			mustExec(t, db, "INSERT INTO t (id, grp, val, pad) VALUES (?, ?, ?, 'pad')",
				Int(next), Text(groups[r.Intn(len(groups))]), Int(int64(r.Intn(1000))))
			if r.Intn(3) == 0 {
				mustExec(t, db, "INSERT INTO t2 (id, ref) VALUES (?, ?)", Int(next), Int(1+r.Int63n(next)))
			}
		}
		lo := int64(r.Intn(900))
		mustExec(t, db, "UPDATE t SET val = val + 1 WHERE val >= ? AND val < ?", Int(lo), Int(lo+50))
		mustExec(t, db, "DELETE FROM t WHERE val >= ? AND val < ?", Int(lo+400), Int(lo+410))
		for _, q := range shapes {
			var params []Value
			if q.params != nil {
				params = q.params()
			}
			rc, ro := selectBoth(t, db, q.sql, params...)
			if rc == nil || ro == nil {
				t.Fatalf("round %d: %q failed on both executors", round, q.sql)
			}
			sameRows(t, fmt.Sprintf("round %d", round), q.sql, rc, ro, q.ordered)
		}
	}
	if pc := db.PlanCounters(); pc.OrderedScans == 0 || pc.MinMaxIndex == 0 || pc.Compiled == 0 {
		t.Fatalf("workload missed a SELECT path: %+v", pc)
	}
}

// TestCompiledJoinSemantics pins the hash-join edge semantics against the
// interpreter: NULL keys never match, multi-conjunct ON clauses use the
// full key, cross-kind values coerce per pair, and a heterogeneous build
// side degrades to per-pair comparison rather than changing results.
func TestCompiledJoinSemantics(t *testing.T) {
	db := New()
	for _, ddl := range []string{
		"CREATE TABLE l (x INT, y INT)",
		"CREATE TABLE r (x INT, y INT)",
		"CREATE INDEX r_x ON r (x) USING HASH",
	} {
		mustExec(t, db, ddl)
	}
	rows := [][2]Value{
		{Int(1), Int(1)}, {Int(1), Int(2)}, {Int(2), Null()}, {Null(), Int(3)},
		{Text("2"), Int(2)}, {Int(3), Int(3)}, {Int(3), Int(3)},
	}
	for _, row := range rows {
		mustExec(t, db, "INSERT INTO l (x, y) VALUES (?, ?)", row[0], row[1])
		mustExec(t, db, "INSERT INTO r (x, y) VALUES (?, ?)", row[0], row[1])
	}
	for _, q := range []string{
		// Multi-conjunct ON: full key in the compiled join, probe+filter in
		// the interpreter.
		"SELECT l.x, l.y, r.x, r.y FROM l JOIN r ON l.x = r.x AND l.y = r.y",
		// Single-column with NULLs and a heterogeneous build side (INT and
		// TEXT '2' both live in r.x): per-pair coercion must be preserved,
		// so Text('2') matches Int(2) in either direction.
		"SELECT l.x, r.y FROM l JOIN r ON l.x = r.x",
		"SELECT l.x, r.y FROM l, r WHERE l.y = r.x",
	} {
		rc, ro := selectBoth(t, db, q)
		sameRows(t, "join", q, rc, ro, false)
	}
	if pc := db.PlanCounters(); pc.HashJoins+pc.NestedLoops == 0 {
		t.Fatalf("no join operators ran: %+v", pc)
	}
}

// TestSelectFeeds holds SelectFeeds — every FROM entry bound to supplied
// rows, the seam a sharded store finishes cross-shard reads on — to the
// same statement over the stored tables: same rows, same failures, and its
// hash joins counted on the database it ran on.
func TestSelectFeeds(t *testing.T) {
	db := seedEquivalenceDB(t)
	for i := 0; i < 60; i++ {
		grp := Text(fmt.Sprintf("g%d", i%5))
		if i%11 == 0 {
			grp = Null()
		}
		mustExec(t, db, "INSERT INTO t1 (id, grp, a, b) VALUES (?, ?, ?, ?)", Int(int64(i)), grp, Int(int64(i%17)), Int(int64(i%7)))
		mustExec(t, db, "INSERT INTO t2 (id, fk, c) VALUES (?, ?, ?)", Int(int64(i)), Int(int64(i*7%60)), Int(int64(i%9)))
		mustExec(t, db, "INSERT INTO t3 (id, k1, k2, d) VALUES (?, ?, ?, ?)", Int(int64(i)), Int(int64(i%9)), Int(int64(i%4)), Int(int64(i)))
	}
	fed := func(sql string, params ...Value) (*Result, error) {
		s, err := sqlparser.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		sel := s.(*sqlparser.SelectStmt)
		feeds := make([]Feed, len(sel.From))
		for i, ref := range sel.From {
			res := mustExec(t, db, "SELECT * FROM "+ref.Table)
			feeds[i] = Feed{Columns: res.Columns, Rows: res.Rows}
		}
		return db.SelectFeeds(sel, feeds, params...)
	}
	var fedJoins int64
	for _, q := range []struct {
		sql     string
		ordered bool
	}{
		{"SELECT t1.id, t2.id, t2.c FROM t1, t2 WHERE t1.id = t2.fk AND t2.c > 3", false},
		{"SELECT t1.grp, COUNT(*), SUM(t2.c) FROM t1 JOIN t2 ON t1.id = t2.fk WHERE t1.a > 4 GROUP BY t1.grp HAVING COUNT(*) > 1 ORDER BY t1.grp", true},
		{"SELECT t1.grp, t3.d FROM t1, t2, t3 WHERE t1.id = t2.fk AND t2.c = t3.k1 AND t1.b > 2", false},
		{"SELECT x.id, y.id FROM t1 x JOIN t1 y ON x.a = y.b WHERE x.grp = 'g1'", false},
		{"SELECT COUNT(DISTINCT grp), AVG(a) FROM t1", true},
		{"SELECT * FROM t3 WHERE d > 10 ORDER BY k1 DESC, id LIMIT 5 OFFSET 2", true},
		{"SELECT id FROM t1 WHERE a = NULL", false},
		{"SELECT t1.id FROM t1, t2 WHERE t1.id = t2.nope", false},
	} {
		rs, errS := db.ExecSQL(q.sql)
		before := db.PlanCounters().HashJoins
		rf, errF := fed(q.sql)
		fedJoins += db.PlanCounters().HashJoins - before
		if (errS == nil) != (errF == nil) {
			t.Fatalf("%q: stored err=%v, fed err=%v", q.sql, errS, errF)
		}
		if errS == nil {
			sameRows(t, "feeds", q.sql, rs, rf, q.ordered)
			if strings.Join(rs.Columns, ",") != strings.Join(rf.Columns, ",") {
				t.Fatalf("%q: columns %v vs %v", q.sql, rs.Columns, rf.Columns)
			}
		}
	}
	if fedJoins != 5 {
		t.Fatalf("fed statements counted %d hash joins, want 5", fedJoins)
	}
	if _, err := db.SelectFeeds(&sqlparser.SelectStmt{From: []sqlparser.TableRef{{Table: "t1"}}}, nil); err == nil {
		t.Fatal("SelectFeeds accepted a FROM entry without a feed")
	}
}

// nopAgg is an aggregate UDF state that accepts anything.
type nopAgg struct{}

func (nopAgg) Step([]Value) error    { return nil }
func (nopAgg) Final() (Value, error) { return Null(), nil }

// TestCompileResolveErrors covers every statement-shape mistake the
// compiler used to hand to the interpreter. The front end must reject each
// one by name before reading a row: the same error on an empty and on a
// populated table, and ahead of any error evaluating a row would raise
// (the populated table's b column makes `-b` fail on every row).
func TestCompileResolveErrors(t *testing.T) {
	db := New()
	for _, tbl := range []string{"e", "p"} {
		mustExec(t, db, "CREATE TABLE "+tbl+" (id INT PRIMARY KEY, a INT, b TEXT)")
		mustExec(t, db, "CREATE INDEX "+tbl+"_a ON "+tbl+" (a) USING BTREE")
	}
	mustExec(t, db, "INSERT INTO p (id, a, b) VALUES (1, 10, 'x'), (2, 20, 'y')")
	db.RegisterAggUDF("agg_nop", func() AggState { return nopAgg{} })

	for _, tc := range []struct{ name, sql, want string }{
		{"unknown column", "SELECT nosuch FROM %s", "sqldb: no column nosuch"},
		{"unknown column in WHERE", "SELECT a FROM %s WHERE nosuch = 1", "sqldb: no column nosuch"},
		{"unknown column, ordered-index path", "SELECT nosuch FROM %s ORDER BY a LIMIT 1", "sqldb: no column nosuch"},
		{"unknown qualifier", "SELECT z.a FROM %s", "sqldb: no table z in scope"},
		{"ambiguous column", "SELECT a FROM %[1]s x, %[1]s y", "sqldb: ambiguous column a"},
		{"unknown column in ON", "SELECT x.a FROM %[1]s x JOIN %[1]s y ON x.id = y.nosuch", "sqldb: no column y.nosuch"},
		{"unknown function", "SELECT a FROM %s WHERE nofunc(a) = 1", "sqldb: unknown function nofunc"},
		{"aggregate in WHERE", "SELECT a FROM %s WHERE SUM(a) > 1", "sqldb: aggregate SUM in a non-aggregate context"},
		{"aggregate in GROUP BY", "SELECT COUNT(*) FROM %s GROUP BY MAX(a)", "sqldb: aggregate MAX in a non-aggregate context"},
		{"nested aggregate", "SELECT SUM(COUNT(a)) FROM %s", "sqldb: aggregate COUNT in a non-aggregate context"},
		{"aggregate UDF in row context", "SELECT a FROM %s WHERE agg_nop(a) = 1", "sqldb: aggregate UDF agg_nop in a non-aggregate context"},
		{"bare HAVING", "SELECT a FROM %s HAVING a > 1", "sqldb: HAVING requires GROUP BY or an aggregate"},
		{"bad projection", "SELECT z.* FROM %s", "sqldb: no table z for z.*"},
		{"resolve error beats row error", "SELECT a FROM %s WHERE -b = 1 AND nosuch = 1", "sqldb: no column nosuch"},
		{"resolve error beats row error in projection", "SELECT -b, nofunc(a) FROM %s", "sqldb: unknown function nofunc"},
	} {
		for _, tbl := range []string{"e", "p"} {
			sql := fmt.Sprintf(tc.sql, tbl)
			_, err := db.ExecSQL(sql)
			if err == nil || err.Error() != tc.want {
				t.Errorf("%s: %q: err = %v, want %q", tc.name, sql, err, tc.want)
			}
		}
	}

	// A well-formed statement over the same rows still reaches them.
	if _, err := db.ExecSQL("SELECT -b FROM p"); err == nil {
		t.Error("SELECT -b FROM p: want the per-row evaluation error")
	}
	// A registered scalar UDF lowers like any other expression.
	db.RegisterUDF("twice", func(args []Value) (Value, error) {
		n, err := args[0].AsInt()
		if err != nil {
			return Value{}, err
		}
		return Int(2 * n), nil
	})
	before := db.PlanCounters().Compiled
	res := mustExec(t, db, "SELECT twice(a) FROM p ORDER BY id")
	if len(res.Rows) != 2 || res.Rows[0][0].I != 20 || res.Rows[1][0].I != 40 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if db.PlanCounters().Compiled != before+1 {
		t.Fatalf("UDF select did not run compiled: %+v", db.PlanCounters())
	}
}

// TestCompiledConcurrentSelects races compiled SELECTs (joins and GROUP
// BYs) against writers on separate sessions; run under -race in CI's
// concurrency smoke.
func TestCompiledConcurrentSelects(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE a (id INT PRIMARY KEY, k INT, v INT)")
	mustExec(t, db, "CREATE TABLE b (id INT PRIMARY KEY, k INT, w INT)")
	for i := 0; i < 200; i++ {
		mustExec(t, db, "INSERT INTO a (id, k, v) VALUES (?, ?, ?)", Int(int64(i)), Int(int64(i%8)), Int(int64(i)))
		mustExec(t, db, "INSERT INTO b (id, k, w) VALUES (?, ?, ?)", Int(int64(i)), Int(int64(i%8)), Int(int64(2*i)))
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := db.NewSession()
			defer sess.Close()
			for i := 0; i < 50; i++ {
				id := int64(200 + w*1000 + i)
				if _, err := sess.ExecSQL("INSERT INTO a (id, k, v) VALUES (?, ?, ?)", Int(id), Int(id%8), Int(id)); err != nil {
					t.Errorf("writer: %v", err)
					return
				}
			}
		}(w)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := db.NewSession()
			defer sess.Close()
			for i := 0; i < 30; i++ {
				if _, err := sess.ExecSQL("SELECT a.k, COUNT(*), SUM(b.w) FROM a JOIN b ON a.k = b.k GROUP BY a.k"); err != nil {
					t.Errorf("reader: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if pc := db.PlanCounters(); pc.Compiled == 0 || pc.HashJoins == 0 {
		t.Fatalf("compiled path unused under concurrency: %+v", pc)
	}
}

// TestCompiledTxnView checks the compiled pipeline reads a transaction's
// write set in place (read-your-writes) and agrees there with the reference
// interpreter over a twin that autocommitted the same statements.
func TestCompiledTxnView(t *testing.T) {
	db, twin := New(), New()
	for _, sql := range []string{
		"CREATE TABLE t (id INT PRIMARY KEY, g INT, v INT)",
		"INSERT INTO t (id, g, v) VALUES (1, 1, 10), (2, 1, 20), (3, 2, 30)",
	} {
		mustExec(t, db, sql)
		mustExec(t, twin, sql)
	}
	sess := db.NewSession()
	defer sess.Close()
	mustExecSQL := func(sql string, params ...Value) *Result {
		res, err := sess.ExecSQL(sql, params...)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return res
	}
	mustExecSQL("BEGIN")
	for _, sql := range []string{
		"UPDATE t SET v = 25 WHERE id = 2",
		"INSERT INTO t (id, g, v) VALUES (4, 2, 40)",
	} {
		mustExecSQL(sql)
		mustExec(t, twin, sql)
	}
	const q = "SELECT g, SUM(v) FROM t GROUP BY g ORDER BY g"
	res := mustExecSQL(q)
	if len(res.Rows) != 2 || res.Rows[0][1].I != 35 || res.Rows[1][1].I != 70 {
		t.Fatalf("rows = %v", res.Rows)
	}
	ref, err := interpretSQL(t, twin, q)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, "txn view", q, res, ref, true)
	mustExecSQL("ROLLBACK")
}
