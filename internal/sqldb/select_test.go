package sqldb

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/sqlparser"
)

func TestOrderByNullsFirst(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (a INT)")
	mustExec(t, db, "INSERT INTO t (a) VALUES (2), (NULL), (1)")
	res := mustExec(t, db, "SELECT a FROM t ORDER BY a")
	if !res.Rows[0][0].IsNull() || res.Rows[1][0].I != 1 || res.Rows[2][0].I != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestGroupByMultipleKeys(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (a INT, b INT, v INT)")
	mustExec(t, db, "INSERT INTO t (a, b, v) VALUES (1, 1, 10), (1, 1, 20), (1, 2, 5), (2, 1, 7)")
	res := mustExec(t, db, "SELECT a, b, SUM(v) FROM t GROUP BY a, b ORDER BY a, b")
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][2].I != 30 || res.Rows[1][2].I != 5 || res.Rows[2][2].I != 7 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestLimitEdgeCases(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (a INT)")
	mustExec(t, db, "INSERT INTO t (a) VALUES (1), (2), (3)")
	if res := mustExec(t, db, "SELECT a FROM t LIMIT 0"); len(res.Rows) != 0 {
		t.Fatalf("LIMIT 0 rows = %v", res.Rows)
	}
	if res := mustExec(t, db, "SELECT a FROM t LIMIT 99"); len(res.Rows) != 3 {
		t.Fatalf("big LIMIT rows = %v", res.Rows)
	}
	if res := mustExec(t, db, "SELECT a FROM t LIMIT 2 OFFSET 99"); len(res.Rows) != 0 {
		t.Fatalf("big OFFSET rows = %v", res.Rows)
	}
	// Bounds past the int range of a 32-bit build, and a LIMIT whose sum
	// with its OFFSET overflows int64, through a scan and an ordered walk.
	mustExec(t, db, "CREATE INDEX t_a ON t (a) USING BTREE")
	for _, tc := range []struct {
		sql  string
		want []int64
	}{
		{"SELECT a FROM t LIMIT 9223372036854775807 OFFSET 1", []int64{2, 3}},
		{"SELECT a FROM t ORDER BY a DESC LIMIT 9223372036854775807 OFFSET 1", []int64{2, 1}},
		{"SELECT a FROM t LIMIT 4294967296", []int64{1, 2, 3}},
		{"SELECT a FROM t ORDER BY a LIMIT 4294967296", []int64{1, 2, 3}},
		{"SELECT a FROM t OFFSET 4294967296", nil},
		{"SELECT a FROM t ORDER BY a LIMIT 1 OFFSET 4294967296", nil},
	} {
		res := mustExec(t, db, tc.sql)
		if len(res.Rows) != len(tc.want) {
			t.Fatalf("%s: rows = %v, want %v", tc.sql, res.Rows, tc.want)
		}
		for i, w := range tc.want {
			if res.Rows[i][0].I != w {
				t.Fatalf("%s: rows = %v, want %v", tc.sql, res.Rows, tc.want)
			}
		}
	}
}

func TestSelfJoinAliases(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE n (id INT, parent INT)")
	mustExec(t, db, "INSERT INTO n (id, parent) VALUES (1, 0), (2, 1), (3, 1)")
	res := mustExec(t, db, "SELECT c.id FROM n p JOIN n c ON c.parent = p.id WHERE p.id = 1 ORDER BY c.id")
	if len(res.Rows) != 2 || res.Rows[0][0].I != 2 || res.Rows[1][0].I != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestAggregateInHavingOnly(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (g INT, v INT)")
	mustExec(t, db, "INSERT INTO t (g, v) VALUES (1, 5), (1, 6), (2, 7)")
	res := mustExec(t, db, "SELECT g FROM t GROUP BY g HAVING SUM(v) > 10")
	if len(res.Rows) != 1 || res.Rows[0][0].I != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestOrderByAggregate(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (g INT, v INT)")
	mustExec(t, db, "INSERT INTO t (g, v) VALUES (1, 1), (2, 2), (2, 3), (3, 9)")
	res := mustExec(t, db, "SELECT g FROM t GROUP BY g ORDER BY SUM(v) DESC")
	if res.Rows[0][0].I != 3 || res.Rows[1][0].I != 2 || res.Rows[2][0].I != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestEvalConstAndExpr(t *testing.T) {
	e, err := sqlparser.Parse("SELECT 1 + 2 * 3")
	if err != nil {
		t.Fatal(err)
	}
	expr := e.(*sqlparser.SelectStmt).Exprs[0].Expr
	v, err := EvalConst(expr, nil)
	if err != nil || v.I != 7 {
		t.Fatalf("EvalConst = %v, %v", v, err)
	}

	st, _ := sqlparser.Parse("SELECT a + b")
	sum := st.(*sqlparser.SelectStmt).Exprs[0].Expr
	got, err := EvalExpr(sum, func(table, col string) (Value, error) {
		if col == "a" {
			return Int(10), nil
		}
		return Int(32), nil
	}, nil)
	if err != nil || got.I != 42 {
		t.Fatalf("EvalExpr = %v, %v", got, err)
	}

	if _, err := EvalConst(sum, nil); err == nil {
		t.Fatal("EvalConst over columns should fail")
	}

	// Standalone mode: a column reference reaches lookup only when
	// evaluation gets to it, and a function call is rejected before
	// anything is evaluated.
	parse := func(sql string) sqlparser.Expr {
		st, err := sqlparser.Parse("SELECT " + sql)
		if err != nil {
			t.Fatal(err)
		}
		return st.(*sqlparser.SelectStmt).Exprs[0].Expr
	}
	if v, err := EvalConst(parse("FALSE AND col"), nil); err != nil || v.Truthy() {
		t.Errorf("FALSE AND col = %v, %v; want false", v, err)
	}
	var nc *NotConstError
	if _, err := EvalConst(parse("col"), nil); !errors.As(err, &nc) || nc.Ref != "col" {
		t.Errorf("col: err = %v, want a NotConstError for col", err)
	}
	for _, tc := range []struct{ sql, want string }{
		{"? + ?", "sqldb: missing parameter 2"},
		{"nofn(1)", "sqldb: no function nofn in standalone evaluation"},
		{"FALSE AND nofn(1)", "sqldb: no function nofn in standalone evaluation"},
		{"SUM(a)", "sqldb: aggregate SUM in a non-aggregate context"},
	} {
		if _, err := EvalConst(parse(tc.sql), []Value{Int(1)}); err == nil || err.Error() != tc.want {
			t.Errorf("%s: err = %v, want %q", tc.sql, err, tc.want)
		}
	}
}

func TestExecAutonomousSurvivesRollback(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (a INT)")
	mustExec(t, db, "CREATE TABLE u (b INT)")
	mustExec(t, db, "INSERT INTO t (a) VALUES (1)")
	mustExec(t, db, "INSERT INTO u (b) VALUES (10)")
	mustExec(t, db, "BEGIN")
	mustExec(t, db, "UPDATE t SET a = 100") // in-txn: buffers and locks t's row

	// An autonomous statement on a row the open transaction wrote must
	// fail fast with a write conflict (first writer wins) instead of
	// interleaving with the buffered write.
	st, err := sqlparser.Parse("UPDATE t SET a = a + 1")
	if err != nil {
		t.Fatal(err)
	}
	var wc *WriteConflictError
	if _, err := db.ExecAutonomous(st); !errors.As(err, &wc) {
		t.Fatalf("autonomous update of a locked row: err = %v, want WriteConflictError", err)
	}

	// On an untouched table it proceeds — and survives the ROLLBACK.
	st2, err := sqlparser.Parse("UPDATE u SET b = b + 1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.ExecAutonomous(st2); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "ROLLBACK")
	res := mustExec(t, db, "SELECT a FROM t")
	if res.Rows[0][0].I != 1 {
		t.Fatalf("a = %v, want 1 (buffered update discarded)", res.Rows[0][0])
	}
	res = mustExec(t, db, "SELECT b FROM u")
	if res.Rows[0][0].I != 11 {
		t.Fatalf("b = %v, want 11 (autonomous update survives rollback)", res.Rows[0][0])
	}
}

func TestBusyNanosAccounting(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (a INT)")
	db.ResetBusyNanos()
	for i := 0; i < 100; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO t (a) VALUES (%d)", i))
	}
	if db.BusyNanos() == 0 {
		t.Fatal("busy time not recorded")
	}
	db.ResetBusyNanos()
	if db.BusyNanos() != 0 {
		t.Fatal("reset failed")
	}
}

func TestInsertDefaultsNulls(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (a INT, b TEXT, c INT)")
	mustExec(t, db, "INSERT INTO t (a) VALUES (1)")
	res := mustExec(t, db, "SELECT a, b, c FROM t")
	if !res.Rows[0][1].IsNull() || !res.Rows[0][2].IsNull() {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestUpdateSwapSemantics(t *testing.T) {
	// Assignments evaluate against the pre-update row: a,b swap works.
	db := New()
	mustExec(t, db, "CREATE TABLE t (a INT, b INT)")
	mustExec(t, db, "INSERT INTO t (a, b) VALUES (1, 2)")
	mustExec(t, db, "UPDATE t SET a = b, b = a")
	res := mustExec(t, db, "SELECT a, b FROM t")
	if res.Rows[0][0].I != 2 || res.Rows[0][1].I != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestStringConcat(t *testing.T) {
	db := New()
	res := mustExec(t, db, "SELECT 'a' || 'b'")
	if res.Rows[0][0].S != "ab" {
		t.Fatalf("concat = %v", res.Rows[0][0])
	}
}

func TestDivisionByZeroIsNull(t *testing.T) {
	db := New()
	res := mustExec(t, db, "SELECT 1 / 0")
	if !res.Rows[0][0].IsNull() {
		t.Fatalf("1/0 = %v, want NULL", res.Rows[0][0])
	}
	res = mustExec(t, db, "SELECT 1 % 0")
	if !res.Rows[0][0].IsNull() {
		t.Fatalf("1%%0 = %v, want NULL", res.Rows[0][0])
	}
}

func TestIndexedLookupIsFasterPath(t *testing.T) {
	// Behavioral check: indexed equality returns exactly the matching
	// rows even after heavy churn (insert/delete/update cycles).
	db := New()
	mustExec(t, db, "CREATE TABLE t (k INT, v INT)")
	mustExec(t, db, "CREATE INDEX tk ON t (k)")
	for i := 0; i < 200; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO t (k, v) VALUES (%d, %d)", i%10, i))
	}
	mustExec(t, db, "DELETE FROM t WHERE v < 50")
	mustExec(t, db, "UPDATE t SET k = 99 WHERE v >= 150")
	res := mustExec(t, db, "SELECT COUNT(*) FROM t WHERE k = 99")
	if res.Rows[0][0].I != 50 {
		t.Fatalf("count = %v", res.Rows[0][0])
	}
	res = mustExec(t, db, "SELECT COUNT(*) FROM t WHERE k = 3")
	if res.Rows[0][0].I != 10 { // v in [53..143] with k=3: 53,63,...,143
		t.Fatalf("count = %v", res.Rows[0][0])
	}
}
