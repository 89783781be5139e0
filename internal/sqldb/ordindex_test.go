package sqldb

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestOrdKeyOrdering(t *testing.T) {
	// OrdKey byte order must match Compare for same-kind values, including
	// negative integers, and segregate kinds in Kind order.
	vals := []Value{
		Null(),
		Int(-1 << 62), Int(-5), Int(-1), Int(0), Int(1), Int(42), Int(1 << 62),
		Text(""), Text("a"), Text("ab"), Text("b"),
		Blob(nil), Blob([]byte{1}), Blob([]byte{1, 2}),
	}
	for i := 0; i < len(vals); i++ {
		for j := i + 1; j < len(vals); j++ {
			if !(vals[i].OrdKey() < vals[j].OrdKey()) {
				t.Fatalf("OrdKey(%v) !< OrdKey(%v)", vals[i], vals[j])
			}
		}
	}
}

func TestOrderedIndexRangeScan(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE r (k INT, v TEXT)")
	mustExec(t, db, "CREATE INDEX rk ON r (k) USING BTREE")
	for i := 0; i < 100; i++ {
		mustExec(t, db, "INSERT INTO r (k, v) VALUES (?, ?)",
			Int(int64((i*37)%100)), Text(fmt.Sprintf("v%d", i)))
	}
	before := db.PlanCounters()
	res := mustExec(t, db, "SELECT k FROM r WHERE k >= 10 AND k < 20 ORDER BY k")
	after := db.PlanCounters()
	if len(res.Rows) != 10 {
		t.Fatalf("got %d rows, want 10", len(res.Rows))
	}
	for i, row := range res.Rows {
		if row[0].I != int64(10+i) {
			t.Fatalf("row %d: got k=%d", i, row[0].I)
		}
	}
	if after.OrderedScans != before.OrderedScans+1 {
		t.Fatalf("ordered-scan fast path not used: %+v -> %+v", before, after)
	}

	// BETWEEN drives the range access path in produceTuples (no ORDER BY).
	before = db.PlanCounters()
	res = mustExec(t, db, "SELECT k FROM r WHERE k BETWEEN 95 AND 99")
	after = db.PlanCounters()
	if len(res.Rows) != 5 {
		t.Fatalf("BETWEEN: got %d rows, want 5", len(res.Rows))
	}
	if after.RangeScans != before.RangeScans+1 {
		t.Fatalf("range access path not used: %+v -> %+v", before, after)
	}
}

func TestOrderedIndexOrderByLimitDesc(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE r (k INT)")
	mustExec(t, db, "CREATE INDEX rk ON r (k)")
	for i := 0; i < 50; i++ {
		mustExec(t, db, "INSERT INTO r (k) VALUES (?)", Int(int64(i)))
	}
	res := mustExec(t, db, "SELECT k FROM r ORDER BY k DESC LIMIT 3 OFFSET 1")
	want := []int64{48, 47, 46}
	if len(res.Rows) != len(want) {
		t.Fatalf("got %d rows", len(res.Rows))
	}
	for i, w := range want {
		if res.Rows[i][0].I != w {
			t.Fatalf("row %d: got %d want %d", i, res.Rows[i][0].I, w)
		}
	}
	if db.PlanCounters().OrderedScans == 0 {
		t.Fatal("ordered-scan fast path not used")
	}
}

// TestOrderedWalkPageAccesses pins what an index-ordered walk reads: each
// row read is one page access (a cache hit or miss), and under a LIMIT the
// walk reads exactly the rows up to its offset+limit-th match, none ahead.
func TestOrderedWalkPageAccesses(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE w (id INT PRIMARY KEY, k INT, v INT)")
	mustExec(t, db, "CREATE INDEX w_k ON w (k) USING BTREE")
	for i := 0; i < 2000; i++ {
		k := i * 7 % 2000 // slot order is not k order
		v := 0
		if k%5 == 1 || k%5 == 2 {
			v = 1
		}
		mustExec(t, db, "INSERT INTO w (id, k, v) VALUES (?, ?, ?)", Int(int64(i)), Int(int64(k)), Int(int64(v)))
	}
	for _, tc := range []struct {
		sql   string
		keys  []int64
		reads int64
	}{
		{"SELECT id, k FROM w ORDER BY k LIMIT 5", []int64{0, 1, 2, 3, 4}, 5},
		{"SELECT id, k FROM w WHERE k >= 1000 ORDER BY k DESC LIMIT 5", []int64{1999, 1998, 1997, 1996, 1995}, 5},
		{"SELECT id, k FROM w WHERE v = 1 ORDER BY k LIMIT 5", []int64{1, 2, 6, 7, 11}, 12},
		{"SELECT id, k FROM w ORDER BY k LIMIT 5 OFFSET 3", []int64{3, 4, 5, 6, 7}, 8},
	} {
		cs, pc := db.CacheStats(), db.PlanCounters()
		res := mustExec(t, db, tc.sql)
		after := db.CacheStats()
		if got := after.Hits + after.Misses - cs.Hits - cs.Misses; got != tc.reads {
			t.Errorf("%s: %d page accesses, want %d", tc.sql, got, tc.reads)
		}
		if got := db.PlanCounters().OrderedScans - pc.OrderedScans; got != 1 {
			t.Errorf("%s: OrderedScans +%d, want +1", tc.sql, got)
		}
		if len(res.Rows) != len(tc.keys) {
			t.Fatalf("%s: %d rows, want %d", tc.sql, len(res.Rows), len(tc.keys))
		}
		for i, k := range tc.keys {
			if res.Rows[i][1].I != k {
				t.Errorf("%s: row %d has k=%d, want %d", tc.sql, i, res.Rows[i][1].I, k)
			}
		}
	}
}

func TestOrderedIndexMinMax(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE r (k INT)")
	mustExec(t, db, "CREATE INDEX rk ON r (k)")
	res := mustExec(t, db, "SELECT MIN(k), MAX(k) FROM r")
	if !res.Rows[0][0].IsNull() || !res.Rows[0][1].IsNull() {
		t.Fatalf("empty table: want NULLs, got %v", res.Rows[0])
	}
	mustExec(t, db, "INSERT INTO r (k) VALUES (NULL), (7), (-3), (12)")
	res = mustExec(t, db, "SELECT MIN(k), MAX(k) FROM r")
	if res.Rows[0][0].I != -3 || res.Rows[0][1].I != 12 {
		t.Fatalf("got %v", res.Rows[0])
	}
	if db.PlanCounters().MinMaxIndex == 0 {
		t.Fatal("MIN/MAX fast path not used")
	}
}

func TestCreateIndexUsing(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE u (a INT, b INT, c INT)")
	mustExec(t, db, "CREATE INDEX ua ON u (a)")             // hash + ordered
	mustExec(t, db, "CREATE INDEX ub ON u (b) USING HASH")  // hash only
	mustExec(t, db, "CREATE INDEX uc ON u (c) USING BTREE") // ordered only
	tab := db.Table("u")
	if tab.indexes["a"] == nil || tab.ordIndexes["a"] == nil {
		t.Fatal("default index should create both structures")
	}
	if tab.indexes["b"] == nil || tab.ordIndexes["b"] != nil {
		t.Fatal("USING HASH should create only a hash index")
	}
	if tab.indexes["c"] != nil || tab.ordIndexes["c"] == nil {
		t.Fatal("USING BTREE should create only an ordered index")
	}
	if _, err := db.ExecSQL("CREATE INDEX ux ON u (a) USING SPLAY"); err == nil {
		t.Fatal("want error for unknown index type")
	}
	// Ordered index built over existing rows.
	db2 := New()
	mustExec(t, db2, "CREATE TABLE u (a INT)")
	mustExec(t, db2, "INSERT INTO u (a) VALUES (3), (1), (2)")
	mustExec(t, db2, "CREATE INDEX ua ON u (a) USING BTREE")
	res := mustExec(t, db2, "SELECT a FROM u WHERE a > 1 ORDER BY a")
	if len(res.Rows) != 2 || res.Rows[0][0].I != 2 || res.Rows[1][0].I != 3 {
		t.Fatalf("got %v", res.Rows)
	}
}

func TestUpdateUniqueViolation(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE q (id INT PRIMARY KEY, v INT)")
	mustExec(t, db, "INSERT INTO q (id, v) VALUES (1, 10), (2, 20)")
	if _, err := db.ExecSQL("UPDATE q SET id = 2 WHERE id = 1"); err == nil {
		t.Fatal("want unique violation on UPDATE")
	}
	// The rejected update must leave the row untouched.
	res := mustExec(t, db, "SELECT v FROM q WHERE id = 1")
	if len(res.Rows) != 1 || res.Rows[0][0].I != 10 {
		t.Fatalf("row mutated by rejected update: %v", res.Rows)
	}
	// Self-assignment of the same value stays legal.
	mustExec(t, db, "UPDATE q SET id = 1 WHERE id = 1")
	// Moving to a fresh value stays legal.
	mustExec(t, db, "UPDATE q SET id = 3 WHERE id = 1")
	res = mustExec(t, db, "SELECT v FROM q WHERE id = 3")
	if len(res.Rows) != 1 {
		t.Fatalf("expected moved row, got %v", res.Rows)
	}
}

func TestMultiRowUpdateAtomicOnUniqueViolation(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE a (id INT, v INT)")
	mustExec(t, db, "CREATE UNIQUE INDEX av ON a (v)")
	mustExec(t, db, "INSERT INTO a (id, v) VALUES (1, 10), (2, 20), (3, 30)")
	// Every row maps to v=99: the second application collides with the
	// first, and the statement must leave ALL rows untouched.
	if _, err := db.ExecSQL("UPDATE a SET v = 99 WHERE id >= 1"); err == nil {
		t.Fatal("want unique violation")
	}
	res := mustExec(t, db, "SELECT v FROM a ORDER BY v")
	want := []int64{10, 20, 30}
	if len(res.Rows) != 3 {
		t.Fatalf("got %v", res.Rows)
	}
	for i, w := range want {
		if res.Rows[i][0].I != w {
			t.Fatalf("partial update leaked: got %v", res.Rows)
		}
	}
}

func TestHashEqCoercionFallsBack(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE h (k INT, v INT)")
	mustExec(t, db, "CREATE INDEX hk ON h (k) USING HASH")
	mustExec(t, db, "INSERT INTO h (k, v) VALUES (5, 50), (6, 60)")
	// A text bound that parses must still find the integer row, whether
	// through key coercion or a fallback scan.
	res := mustExec(t, db, "SELECT v FROM h WHERE k = '5'")
	if len(res.Rows) != 1 || res.Rows[0][0].I != 50 {
		t.Fatalf("coerced equality missed: %v", res.Rows)
	}
	// A mixed-kind column must force the scan path (text '7' row matches
	// an integer probe per-row but not by key).
	mustExec(t, db, "INSERT INTO h (k, v) VALUES ('7', 70)")
	res = mustExec(t, db, "SELECT v FROM h WHERE k = 7")
	if len(res.Rows) != 1 || res.Rows[0][0].I != 70 {
		t.Fatalf("mixed-kind equality missed: %v", res.Rows)
	}
}

func TestOrderedIndexMixedKindsFallsBack(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE m (k INT)")
	mustExec(t, db, "CREATE INDEX mk ON m (k)")
	// The engine is dynamically typed: text can land in an INT column.
	mustExec(t, db, "INSERT INTO m (k) VALUES (5), ('40'), (12)")
	// '40' coerces to 40 for comparison, so k > 10 matches two rows even
	// though OrdKey would segregate it into the text region: the planner
	// must detect the mixed-kind index and fall back to a scan.
	res := mustExec(t, db, "SELECT k FROM m WHERE k > 10")
	if len(res.Rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(res.Rows))
	}
}

// TestOrderedIndexChurn is the maintenance property test: a table with
// hash+ordered indexes and an unindexed oracle table receive an identical
// interleaved stream of INSERT/DELETE/UPDATE statements; range queries,
// ORDER BY ... LIMIT and MIN/MAX must agree at every step.
func TestOrderedIndexChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(20260728))
	idx, ora := New(), New()
	for _, db := range []*DB{idx, ora} {
		mustExec(t, db, "CREATE TABLE t (k INT, id INT)")
	}
	mustExec(t, idx, "CREATE INDEX tk ON t (k)")

	both := func(sql string, params ...Value) {
		t.Helper()
		r1, e1 := idx.ExecSQL(sql, params...)
		r2, e2 := ora.ExecSQL(sql, params...)
		if (e1 == nil) != (e2 == nil) {
			t.Fatalf("%s: indexed err %v, oracle err %v", sql, e1, e2)
		}
		if e1 == nil && r1.Affected != r2.Affected {
			t.Fatalf("%s: affected %d vs %d", sql, r1.Affected, r2.Affected)
		}
	}

	// rowKey renders one result row for multiset comparison.
	rowKey := func(row []Value) string {
		out := ""
		for _, v := range row {
			out += v.Key() + "\x1f"
		}
		return out
	}
	sameMultiset := func(sql string, a, b *Result) {
		t.Helper()
		if len(a.Rows) != len(b.Rows) {
			t.Fatalf("%s: %d vs %d rows", sql, len(a.Rows), len(b.Rows))
		}
		seen := make(map[string]int, len(b.Rows))
		for _, row := range b.Rows {
			seen[rowKey(row)]++
		}
		for _, row := range a.Rows {
			k := rowKey(row)
			if seen[k] == 0 {
				t.Fatalf("%s: row %v missing from oracle result", sql, row)
			}
			seen[k]--
		}
	}
	// sameKeySeq compares the first column sequence (the sort key, which
	// is deterministic even when tie order is not).
	sameKeySeq := func(sql string, a, b *Result, n int) {
		t.Helper()
		if len(a.Rows) != n {
			t.Fatalf("%s: got %d rows, want %d", sql, len(a.Rows), n)
		}
		for i := 0; i < n; i++ {
			av, bv := a.Rows[i][0], b.Rows[i][0]
			if av.IsNull() != bv.IsNull() || (!av.IsNull() && !av.Equal(bv)) {
				t.Fatalf("%s: key %d: %v vs %v", sql, i, av, bv)
			}
		}
	}

	nextID := 0
	for step := 0; step < 500; step++ {
		switch op := rng.Intn(10); {
		case op < 5: // INSERT, occasionally NULL keys and duplicates
			nextID++
			if rng.Intn(8) == 0 {
				both("INSERT INTO t (k, id) VALUES (NULL, ?)", Int(int64(nextID)))
			} else {
				both("INSERT INTO t (k, id) VALUES (?, ?)",
					Int(int64(rng.Intn(120)-60)), Int(int64(nextID)))
			}
		case op < 7: // DELETE a band
			a := int64(rng.Intn(140) - 70)
			both("DELETE FROM t WHERE k >= ? AND k < ?", Int(a), Int(a+int64(rng.Intn(10))))
		case op < 9: // UPDATE a band to a new key
			a := int64(rng.Intn(140) - 70)
			both("UPDATE t SET k = ? WHERE k BETWEEN ? AND ?",
				Int(int64(rng.Intn(120)-60)), Int(a), Int(a+int64(rng.Intn(8))))
		default: // churn slots: delete by id to exercise the free list
			both("DELETE FROM t WHERE id = ?", Int(int64(rng.Intn(nextID+1))))
		}

		if step%5 != 0 {
			continue
		}
		lo := int64(rng.Intn(160) - 80)
		hi := lo + int64(rng.Intn(40))
		for _, q := range []struct {
			sql     string
			ordered bool
		}{
			{"SELECT k, id FROM t WHERE k >= ? AND k < ? ORDER BY k", true},
			{"SELECT k, id FROM t WHERE k > ? AND k <= ? ORDER BY k DESC", true},
			{"SELECT k, id FROM t WHERE k BETWEEN ? AND ?", false},
		} {
			r1 := mustExec(t, idx, q.sql, Int(lo), Int(hi))
			r2 := mustExec(t, ora, q.sql, Int(lo), Int(hi))
			sameMultiset(q.sql, r1, r2)
			if q.ordered {
				sameKeySeq(q.sql, r1, r2, len(r2.Rows))
			}
		}
		// ORDER BY ... LIMIT with early termination: the key sequence must
		// match the oracle's prefix.
		limQ := "SELECT k, id FROM t WHERE k >= ? ORDER BY k LIMIT 7"
		fullQ := "SELECT k, id FROM t WHERE k >= ? ORDER BY k"
		r1 := mustExec(t, idx, limQ, Int(lo))
		r2 := mustExec(t, ora, fullQ, Int(lo))
		n := len(r2.Rows)
		if n > 7 {
			n = 7
		}
		sameKeySeq(limQ, r1, r2, n)

		r1 = mustExec(t, idx, "SELECT MIN(k), MAX(k) FROM t")
		r2 = mustExec(t, ora, "SELECT MIN(k), MAX(k) FROM t")
		sameMultiset("MIN/MAX", r1, r2)
	}

	pc := idx.PlanCounters()
	if pc.RangeScans == 0 || pc.OrderedScans == 0 || pc.MinMaxIndex == 0 {
		t.Fatalf("index paths unused under churn: %+v", pc)
	}
}

// TestIndexedJoinProbeSemantics pins down equality semantics the hash
// probe must not change: NULL never equals NULL, and cross-kind values
// compare through coercion exactly as an unindexed nested loop would.
func TestIndexedJoinProbeSemantics(t *testing.T) {
	build := func(indexed bool) *DB {
		db := New()
		mustExec(t, db, "CREATE TABLE a (x INT)")
		mustExec(t, db, "CREATE TABLE b (y INT)")
		if indexed {
			mustExec(t, db, "CREATE INDEX bi ON b (y) USING HASH")
		}
		mustExec(t, db, "INSERT INTO a (x) VALUES (NULL), (5)")
		mustExec(t, db, "INSERT INTO b (y) VALUES (NULL), (5)")
		return db
	}
	for _, q := range []string{
		"SELECT a.x, b.y FROM a JOIN b ON a.x = b.y",
		"SELECT a.x, b.y FROM a, b WHERE a.x = b.y",
	} {
		ri := mustExec(t, build(true), q)
		rs := mustExec(t, build(false), q)
		if len(ri.Rows) != 1 || len(rs.Rows) != 1 {
			t.Fatalf("%s: indexed %d rows, scan %d rows (want 1: NULL joins nothing)",
				q, len(ri.Rows), len(rs.Rows))
		}
		if ri.Rows[0][0].I != 5 || ri.Rows[0][1].I != 5 {
			t.Fatalf("%s: got %v", q, ri.Rows)
		}
	}

	// Cross-kind comma join: text '5' must find integer 5 via coercion
	// whether or not the probe side is indexed.
	for _, indexed := range []bool{true, false} {
		db := New()
		mustExec(t, db, "CREATE TABLE ta (x TEXT)")
		mustExec(t, db, "CREATE TABLE tb (y INT)")
		if indexed {
			mustExec(t, db, "CREATE INDEX tbi ON tb (y) USING HASH")
		}
		mustExec(t, db, "INSERT INTO ta (x) VALUES ('5')")
		mustExec(t, db, "INSERT INTO tb (y) VALUES (5), (6)")
		res := mustExec(t, db, "SELECT ta.x, tb.y FROM ta, tb WHERE ta.x = tb.y")
		if len(res.Rows) != 1 || res.Rows[0][1].I != 5 {
			t.Fatalf("indexed=%v: got %v", indexed, res.Rows)
		}
	}
}

// TestJoinSeedReorder checks that a comma join seeds from the table with
// the most selective indexed predicate, not blindly from tabs[0].
func TestJoinSeedReorder(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE big (id INT, ref INT)")
	mustExec(t, db, "CREATE TABLE small (sid INT, tag INT)")
	mustExec(t, db, "CREATE INDEX bigref ON big (ref)")
	mustExec(t, db, "CREATE INDEX smallsid ON small (sid)")
	for i := 0; i < 200; i++ {
		mustExec(t, db, "INSERT INTO big (id, ref) VALUES (?, ?)", Int(int64(i)), Int(int64(i%20)))
	}
	for i := 0; i < 20; i++ {
		mustExec(t, db, "INSERT INTO small (sid, tag) VALUES (?, ?)", Int(int64(i)), Int(int64(i*100)))
	}
	// The selective predicate is on small (1 row); the join conjunct then
	// probes big's hash index on ref.
	res := mustExec(t, db,
		"SELECT big.id, small.tag FROM big, small WHERE small.sid = 7 AND big.ref = small.sid ORDER BY big.id")
	if len(res.Rows) != 10 {
		t.Fatalf("got %d rows, want 10", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row[1].I != 700 {
			t.Fatalf("wrong join row: %v", row)
		}
	}
}
