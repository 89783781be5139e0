package sqldb

import (
	"fmt"
	"math/rand"
	"testing"
)

// mixedWorkload drives steps mixed mutate/query steps through db: 3-way
// joins, NULL-heavy GROUP BY/HAVING and DISTINCT over three tables that are
// inserted into, updated and deleted from between queries. Every eighth
// query must hold the reference interpreter's rows (interp_test.go), and a
// query may fail only where the interpreter fails too. Shared by the
// resident and the paged test.
func mixedWorkload(t *testing.T, db *DB, steps int, r *rand.Rand) {
	t.Helper()
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
	for i := 0; i < 400; i++ {
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

	one := func(n int) func() []Value {
		return func() []Value { return []Value{Int(int64(r.Intn(n)))} }
	}
	type tmpl struct {
		sql     string
		params  func() []Value
		ordered bool // compare row order, not just the multiset
	}
	// No hash index on the join columns: every equi join builds its
	// transient table.
	queries := []tmpl{
		{"SELECT * FROM t1 WHERE a < ?", one(40), false},
		{"SELECT id, a + b * 2, -a FROM t1 WHERE (a > ? OR b < 5) AND grp != 'g3' ORDER BY id", one(40), false},
		{"SELECT t1.id, t2.id, t2.c FROM t1, t2 WHERE t1.id = t2.fk AND t2.c > ?", one(15), false},
		{"SELECT t1.grp, COUNT(*), SUM(t2.c) FROM t1 JOIN t2 ON t1.id = t2.fk WHERE t1.a > ? GROUP BY t1.grp HAVING COUNT(*) > 1 ORDER BY t1.grp", one(40), false},
		{"SELECT t3.d, t2.c FROM t2 JOIN t3 ON t2.fk = t3.k1 AND t2.c = t3.k2", nil, false},
		{"SELECT DISTINCT grp FROM t1", nil, false},
		{"SELECT t1.grp, t3.d FROM t1, t2, t3 WHERE t1.id = t2.fk AND t2.c = t3.k1 AND t1.b > ?", one(25), false},
		{"SELECT grp, SUM(a) + COUNT(b), AVG(a) FROM t1 GROUP BY grp", nil, false},
		{"SELECT grp, COUNT(DISTINCT a), MIN(a), MAX(b) FROM t1 GROUP BY grp ORDER BY grp", nil, false},
		{"SELECT id FROM t1 WHERE a BETWEEN ? AND 30 ORDER BY a DESC, id", one(20), false},
		{"SELECT COUNT(DISTINCT t1.grp), MIN(t2.c), MAX(t2.c) FROM t1 JOIN t2 ON t1.id = t2.fk", nil, false},
		{"SELECT COUNT(*), SUM(a) FROM t1 WHERE a > 99999", nil, false},
		{"SELECT grp, COUNT(*) AS n FROM t1 WHERE grp IS NOT NULL GROUP BY grp ORDER BY n DESC, grp", nil, false},
		{"SELECT t2.fk, COUNT(*), SUM(t3.d) FROM t2 JOIN t3 ON t2.c = t3.k2 GROUP BY t2.fk", nil, false},
		{"SELECT grp, MIN(grp), MAX(grp) FROM t1 GROUP BY grp", nil, false},
		// Index-ordered walks over t1's ordered index on a (NULL keys
		// included), one row at a time through the buffer pool.
		{"SELECT id, a AS x FROM t1 WHERE b > ? ORDER BY x LIMIT 9", one(25), true},
		{"SELECT id, a, b FROM t1 WHERE a <= ? ORDER BY a DESC LIMIT 5 OFFSET 2", one(40), true},
		{"SELECT DISTINCT a FROM t1 ORDER BY a LIMIT 6", nil, true},
	}

	for step := 0; step < steps; step++ {
		mutate()
		q := queries[r.Intn(len(queries))]
		var params []Value
		if q.params != nil {
			params = q.params()
		}
		// The interpreter nested-loops these unindexed joins, so only every
		// eighth query, and every query the pipeline fails, goes to it.
		if step%8 != 0 {
			if _, err := db.ExecSQL(q.sql, params...); err == nil {
				continue
			}
		}
		rc, ro := selectBoth(t, db, q.sql, params...)
		if rc != nil && ro != nil {
			// As a multiset unless ordered: the two executors share no
			// scan order.
			sameRows(t, fmt.Sprintf("step %d", step), q.sql, rc, ro, q.ordered)
		}
	}
}

// TestCompiledWorkloadEquivalence holds the compiled pipeline to the
// reference interpreter over 400 mixed steps on a resident database.
func TestCompiledWorkloadEquivalence(t *testing.T) {
	db := New()
	for _, ddl := range []string{
		"CREATE TABLE t1 (id INT PRIMARY KEY, grp TEXT, a INT, b INT)",
		"CREATE INDEX t1_a ON t1 (a) USING BTREE",
		"CREATE TABLE t2 (id INT PRIMARY KEY, fk INT, c INT)",
		"CREATE TABLE t3 (id INT PRIMARY KEY, k1 INT, k2 INT, d INT)",
	} {
		mustExec(t, db, ddl)
	}
	mixedWorkload(t, db, 400, rand.New(rand.NewSource(11)))
	if pc := db.Stats().Plan; pc.Compiled == 0 || pc.HashJoins == 0 {
		t.Fatalf("compiled path never engaged: %+v", pc)
	}
}

// TestCompiledWorkloadPagedEquivalence runs the same workload on a paged
// database with a deliberately tiny buffer cache, so scans and join builds
// read rows through the buffer pool.
func TestCompiledWorkloadPagedEquivalence(t *testing.T) {
	db, err := Open(t.TempDir(), DurabilityOptions{NoFsync: true, Paged: true, CacheBytes: 64 << 10, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, ddl := range []string{
		"CREATE TABLE t1 (id INT PRIMARY KEY, grp TEXT, a INT, b INT)",
		"CREATE INDEX t1_a ON t1 (a) USING BTREE",
		"CREATE TABLE t2 (id INT PRIMARY KEY, fk INT, c INT)",
		"CREATE TABLE t3 (id INT PRIMARY KEY, k1 INT, k2 INT, d INT)",
	} {
		mustExec(t, db, ddl)
	}
	mixedWorkload(t, db, 150, rand.New(rand.NewSource(13)))
	if pc := db.Stats().Plan; pc.OrderedScans == 0 {
		t.Fatalf("no index-ordered walk ran on the paged database: %+v", pc)
	}
}

// TestCompiledMinMaxMixedKinds holds MIN/MAX over a column that mixes INT
// and TEXT values to the interpreter: the running-best fold coerces per
// comparison, so its result — or its error — depends on scan order, which
// both executors take from the table's slots.
func TestCompiledMinMaxMixedKinds(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE mk (id INT PRIMARY KEY, grp INT, v INT)")
	for i := 0; i < 200; i++ {
		v := Int(int64(i % 50))
		if i%7 == 0 {
			v = Text(fmt.Sprintf("t%d", i%50))
		}
		mustExec(t, db, "INSERT INTO mk (id, grp, v) VALUES (?, ?, ?)", Int(int64(i)), Int(int64(i%4)), v)
	}
	for _, q := range []string{
		"SELECT MIN(v), MAX(v), COUNT(*) FROM mk",
		"SELECT grp, MIN(v), MAX(v) FROM mk GROUP BY grp ORDER BY grp",
	} {
		rc, ro := selectBoth(t, db, q)
		if rc != nil && ro != nil {
			sameRows(t, "mixed kinds", q, rc, ro, true)
		}
	}
}
