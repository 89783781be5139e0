package proxy

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/crypto/search"
	"repro/internal/onion"
	"repro/internal/sqldb"
)

func newTestProxy(t *testing.T) *Proxy {
	t.Helper()
	db := sqldb.New()
	p, err := New(db, Options{HOMBits: 256})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mustExec(t *testing.T, p *Proxy, sql string, params ...sqldb.Value) *sqldb.Result {
	t.Helper()
	res, err := p.Execute(sql, params...)
	if err != nil {
		t.Fatalf("Execute(%q): %v", sql, err)
	}
	return res
}

func seedEmployees(t *testing.T, p *Proxy) {
	t.Helper()
	mustExec(t, p, "CREATE TABLE employees (id INT PRIMARY KEY, name TEXT, dept TEXT, salary INT)")
	rows := []string{
		"(23, 'Alice', 'sales', 60000)",
		"(2, 'Bob', 'sales', 55000)",
		"(3, 'Carol', 'eng', 80000)",
		"(4, 'Dave', 'eng', 75000)",
		"(5, 'Eve', 'hr', 50000)",
	}
	for _, r := range rows {
		mustExec(t, p, "INSERT INTO employees (id, name, dept, salary) VALUES "+r)
	}
}

func TestProjectionOnly(t *testing.T) {
	p := newTestProxy(t)
	seedEmployees(t, p)
	res := mustExec(t, p, "SELECT id, name FROM employees")
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// No predicates: every onion must still be at its outermost layer.
	cm := p.Table("employees").Col("name")
	if cm.Onions[onion.Eq].Current() != onion.RND {
		t.Fatalf("projection lowered Eq onion to %s", cm.Onions[onion.Eq].Current())
	}
	found := false
	for _, r := range res.Rows {
		if r[1].S == "Alice" && r[0].I == 23 {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing row: %v", res.Rows)
	}
}

func TestEqualitySelect(t *testing.T) {
	p := newTestProxy(t)
	seedEmployees(t, p)
	res := mustExec(t, p, "SELECT id FROM employees WHERE name = 'Alice'")
	if len(res.Rows) != 1 || res.Rows[0][0].I != 23 {
		t.Fatalf("rows = %v", res.Rows)
	}
	cm := p.Table("employees").Col("name")
	if cm.Onions[onion.Eq].Current() != onion.DET {
		t.Fatalf("Eq onion at %s, want DET", cm.Onions[onion.Eq].Current())
	}
	// Ord onion untouched: only the needed class was revealed (§2.1).
	if cm.Onions[onion.Ord].Current() != onion.RND {
		t.Fatalf("Ord onion at %s, want RND", cm.Onions[onion.Ord].Current())
	}
	// Repeat query: steady state, no further adjustment.
	adjBefore := p.Stats().OnionAdjustments
	mustExec(t, p, "SELECT COUNT(*) FROM employees WHERE name = 'Bob'")
	if p.Stats().OnionAdjustments != adjBefore {
		t.Fatal("steady-state query triggered adjustment")
	}
}

func TestRangeSelect(t *testing.T) {
	p := newTestProxy(t)
	seedEmployees(t, p)
	res := mustExec(t, p, "SELECT name FROM employees WHERE salary > 60000")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	cm := p.Table("employees").Col("salary")
	if cm.Onions[onion.Ord].Current() != onion.OPE {
		t.Fatalf("Ord at %s", cm.Onions[onion.Ord].Current())
	}
	res = mustExec(t, p, "SELECT name FROM employees WHERE salary BETWEEN 55000 AND 75000")
	if len(res.Rows) != 3 {
		t.Fatalf("between rows = %v", res.Rows)
	}
	res = mustExec(t, p, "SELECT name FROM employees WHERE 70000 < salary")
	if len(res.Rows) != 2 {
		t.Fatalf("flipped rows = %v", res.Rows)
	}
}

func TestAggregates(t *testing.T) {
	p := newTestProxy(t)
	seedEmployees(t, p)
	res := mustExec(t, p, "SELECT COUNT(*), SUM(salary), MIN(salary), MAX(salary), AVG(salary) FROM employees")
	r := res.Rows[0]
	if r[0].I != 5 || r[1].I != 320000 || r[2].I != 50000 || r[3].I != 80000 || r[4].I != 64000 {
		t.Fatalf("aggregates = %v", r)
	}
}

func TestGroupByHaving(t *testing.T) {
	p := newTestProxy(t)
	seedEmployees(t, p)
	res := mustExec(t, p, "SELECT dept, COUNT(*), SUM(salary) FROM employees GROUP BY dept HAVING COUNT(*) > 1 ORDER BY dept")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][0].S != "eng" || res.Rows[0][2].I != 155000 {
		t.Fatalf("eng row = %v", res.Rows[0])
	}
}

func TestHavingOverSumInProxy(t *testing.T) {
	p := newTestProxy(t)
	seedEmployees(t, p)
	res := mustExec(t, p, "SELECT dept FROM employees GROUP BY dept HAVING SUM(salary) > 120000")
	if len(res.Rows) != 2 { // sales 115000? no: 60000+55000=115000; eng 155000; hr 50000
		// eng only
		if len(res.Rows) != 1 || res.Rows[0][0].S != "eng" {
			t.Fatalf("rows = %v", res.Rows)
		}
	}
}

func TestOrderByInProxy(t *testing.T) {
	p := newTestProxy(t)
	seedEmployees(t, p)
	res := mustExec(t, p, "SELECT name FROM employees ORDER BY salary DESC")
	if res.Rows[0][0].S != "Carol" || res.Rows[4][0].S != "Eve" {
		t.Fatalf("rows = %v", res.Rows)
	}
	// No LIMIT: in-proxy sort must NOT reveal OPE (§3.5.1).
	cm := p.Table("employees").Col("salary")
	if cm.Onions[onion.Ord].Current() != onion.RND {
		t.Fatalf("in-proxy sort revealed Ord onion: %s", cm.Onions[onion.Ord].Current())
	}
}

func TestOrderByWithLimitRevealsOPE(t *testing.T) {
	p := newTestProxy(t)
	seedEmployees(t, p)
	res := mustExec(t, p, "SELECT name FROM employees ORDER BY salary DESC LIMIT 2")
	if len(res.Rows) != 2 || res.Rows[0][0].S != "Carol" || res.Rows[1][0].S != "Dave" {
		t.Fatalf("rows = %v", res.Rows)
	}
	cm := p.Table("employees").Col("salary")
	if cm.Onions[onion.Ord].Current() != onion.OPE {
		t.Fatalf("ORDER BY LIMIT should reveal OPE, at %s", cm.Onions[onion.Ord].Current())
	}
}

func TestJoin(t *testing.T) {
	p := newTestProxy(t)
	seedEmployees(t, p)
	mustExec(t, p, "CREATE TABLE depts (dname TEXT, floor INT)")
	mustExec(t, p, "INSERT INTO depts (dname, floor) VALUES ('sales', 1), ('eng', 2), ('hr', 3)")
	res := mustExec(t, p, "SELECT e.name, d.floor FROM employees e JOIN depts d ON e.dept = d.dname WHERE e.id = 3")
	if len(res.Rows) != 1 || res.Rows[0][0].S != "Carol" || res.Rows[0][1].I != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// JAdj onions at JOIN on both columns, same effective key.
	c1 := p.Table("employees").Col("dept")
	c2 := p.Table("depts").Col("dname")
	if c1.Onions[onion.JAdj].Current() != onion.JOIN || c2.Onions[onion.JAdj].Current() != onion.JOIN {
		t.Fatal("JAdj onions not adjusted")
	}
	if c1.groupRoot() != c2.groupRoot() {
		t.Fatal("join transitivity group not merged")
	}
	// Insert after adjustment still joins correctly.
	mustExec(t, p, "INSERT INTO employees (id, name, dept, salary) VALUES (9, 'Zed', 'hr', 1)")
	res = mustExec(t, p, "SELECT d.floor FROM employees e JOIN depts d ON e.dept = d.dname WHERE e.id = 9")
	if len(res.Rows) != 1 || res.Rows[0][0].I != 3 {
		t.Fatalf("post-adjust insert join = %v", res.Rows)
	}
}

func TestJoinTransitivity(t *testing.T) {
	p := newTestProxy(t)
	mustExec(t, p, "CREATE TABLE ta (v TEXT)")
	mustExec(t, p, "CREATE TABLE tb (v TEXT)")
	mustExec(t, p, "CREATE TABLE tc (v TEXT)")
	for _, tb := range []string{"ta", "tb", "tc"} {
		mustExec(t, p, "INSERT INTO "+tb+" (v) VALUES ('x'), ('y')")
	}
	mustExec(t, p, "SELECT COUNT(*) FROM ta JOIN tb ON ta.v = tb.v")
	mustExec(t, p, "SELECT COUNT(*) FROM tb JOIN tc ON tb.v = tc.v")
	// Now A and C are in the same transitivity group (§3.4).
	res := mustExec(t, p, "SELECT COUNT(*) FROM ta JOIN tc ON ta.v = tc.v")
	if res.Rows[0][0].I != 2 {
		t.Fatalf("transitive join count = %v", res.Rows[0][0])
	}
}

func TestLikeSearch(t *testing.T) {
	p := newTestProxy(t)
	mustExec(t, p, "CREATE TABLE messages (id INT, msg TEXT)")
	mustExec(t, p, "INSERT INTO messages (id, msg) VALUES (1, 'hello from alice'), (2, 'bob says hi'), (3, 'alice and bob')")
	res := mustExec(t, p, "SELECT id FROM messages WHERE msg LIKE '%alice%'")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	res = mustExec(t, p, "SELECT id FROM messages WHERE msg NOT LIKE '%alice%'")
	if len(res.Rows) != 1 || res.Rows[0][0].I != 2 {
		t.Fatalf("not-like rows = %v", res.Rows)
	}
}

// TestLikeRefusesMultiKeywordPattern: stored SEARCH blobs hold
// search.Keywords tokens, so a LIKE whose word is not one such token can
// match nothing through the proxy while plaintext LIKE finds rows. The
// proxy must refuse it, not answer wrongly, in normal and training mode.
func TestLikeRefusesMultiKeywordPattern(t *testing.T) {
	const ddl = "CREATE TABLE notes (id INT, body TEXT)"
	const load = "INSERT INTO notes (id, body) VALUES (1, 'hello world from alice'), (2, 'café au lait'), (3, 'e-mail me'), (4, 'kw0042 kw0007')"
	p := newTestProxy(t)
	plain := sqldb.New()
	for _, sql := range []string{ddl, load} {
		mustExec(t, p, sql)
		if _, err := plain.ExecSQL(sql); err != nil {
			t.Fatal(err)
		}
	}
	trainer, err := New(sqldb.New(), Options{HOMBits: 256, Training: true})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, trainer, ddl)

	for _, q := range []string{
		"SELECT id FROM notes WHERE body LIKE '%hello world%'",
		"SELECT id FROM notes WHERE body LIKE '%café%'",
		"SELECT id FROM notes WHERE body LIKE '%e-mail%'",
		"SELECT id FROM notes WHERE body NOT LIKE '%hello world%'",
	} {
		if res, err := plain.ExecSQL(q); err != nil || len(res.Rows) == 0 {
			t.Fatalf("plaintext %q = %v, %v: the case no longer shows a wrong answer", q, res, err)
		}
		res, err := p.Execute(q)
		if err == nil || !strings.Contains(err.Error(), "unsupported LIKE pattern") {
			t.Errorf("%q = %v, %v; want the unsupported LIKE pattern error", q, res, err)
		}
		before := len(trainer.TrainingLog())
		mustExec(t, trainer, q)
		warned := false
		for _, ev := range trainer.TrainingLog()[before:] {
			warned = warned || strings.Contains(ev.Warning, "unsupported LIKE pattern")
		}
		if !warned {
			t.Errorf("training %q logged no unsupported LIKE pattern warning", q)
		}
	}

	// One-keyword patterns keep working, in any case and wildcard form.
	for q, want := range map[string]int{
		"SELECT id FROM notes WHERE body LIKE '%kw0042%'": 1,
		"SELECT id FROM notes WHERE body LIKE '%HELLO%'":  1,
		"SELECT id FROM notes WHERE body LIKE 'mail%'":    1,
		"SELECT id FROM notes WHERE body LIKE '%lait'":    1,
		"SELECT id FROM notes WHERE body LIKE 'au'":       1,
		"SELECT id FROM notes WHERE body NOT LIKE '%me%'": 3,
	} {
		if res := mustExec(t, p, q); len(res.Rows) != want {
			t.Errorf("%q = %v, want %d rows", q, res.Rows, want)
		}
	}
}

func TestLikeWord(t *testing.T) {
	for pat, want := range map[string]string{
		"%alice%": "alice", "Alice%": "alice", "%KW0042": "kw0042", "42": "42",
		"%hello world%": "", "%café%": "", "%e-mail%": "", "%a_b%": "", "%a%b%": "",
		"%_abc%": "", "%%": "", "": "", "% %": "",
	} {
		got, ok := likeWord(pat)
		if ok != (want != "") || got != want {
			t.Errorf("likeWord(%q) = %q, %v; want %q", pat, got, ok, want)
		}
	}
}

func TestDistinct(t *testing.T) {
	p := newTestProxy(t)
	seedEmployees(t, p)
	res := mustExec(t, p, "SELECT DISTINCT dept FROM employees")
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestCountDistinct(t *testing.T) {
	p := newTestProxy(t)
	seedEmployees(t, p)
	res := mustExec(t, p, "SELECT COUNT(DISTINCT dept) FROM employees")
	if res.Rows[0][0].I != 3 {
		t.Fatalf("got %v", res.Rows[0][0])
	}
}

func TestUpdateConst(t *testing.T) {
	p := newTestProxy(t)
	seedEmployees(t, p)
	mustExec(t, p, "UPDATE employees SET dept = 'ops' WHERE id = 5")
	res := mustExec(t, p, "SELECT dept FROM employees WHERE id = 5")
	if res.Rows[0][0].S != "ops" {
		t.Fatalf("dept = %v", res.Rows[0][0])
	}
}

func TestUpdateIncrementThenProject(t *testing.T) {
	p := newTestProxy(t)
	seedEmployees(t, p)
	mustExec(t, p, "UPDATE employees SET salary = salary + 1000 WHERE id = 23")
	// Projection after increment reads the Add onion (§3.3).
	res := mustExec(t, p, "SELECT salary FROM employees WHERE id = 23")
	if res.Rows[0][0].I != 61000 {
		t.Fatalf("salary = %v", res.Rows[0][0])
	}
}

func TestUpdateIncrementThenCompareResyncs(t *testing.T) {
	p := newTestProxy(t)
	seedEmployees(t, p)
	mustExec(t, p, "UPDATE employees SET salary = salary + 1000 WHERE id = 23")
	// Comparison on a stale column triggers the two-query resync (§3.3).
	res := mustExec(t, p, "SELECT name FROM employees WHERE salary > 60500")
	names := map[string]bool{}
	for _, r := range res.Rows {
		names[r[0].S] = true
	}
	if !names["Alice"] || !names["Carol"] || !names["Dave"] || len(names) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if p.Stats().Resyncs == 0 {
		t.Fatal("expected a resync")
	}
	// SUM still correct after resync.
	res = mustExec(t, p, "SELECT SUM(salary) FROM employees")
	if res.Rows[0][0].I != 321000 {
		t.Fatalf("sum = %v", res.Rows[0][0])
	}
}

func TestUpdateTwoQuery(t *testing.T) {
	p := newTestProxy(t)
	seedEmployees(t, p)
	// salary = salary * 2 is not HOM-computable: read-modify-write path.
	mustExec(t, p, "UPDATE employees SET salary = salary * 2 WHERE dept = 'hr'")
	res := mustExec(t, p, "SELECT salary FROM employees WHERE id = 5")
	if res.Rows[0][0].I != 100000 {
		t.Fatalf("salary = %v", res.Rows[0][0])
	}
}

func TestDelete(t *testing.T) {
	p := newTestProxy(t)
	seedEmployees(t, p)
	res := mustExec(t, p, "DELETE FROM employees WHERE dept = 'eng'")
	if res.Affected != 2 {
		t.Fatalf("affected = %d", res.Affected)
	}
	cnt := mustExec(t, p, "SELECT COUNT(*) FROM employees")
	if cnt.Rows[0][0].I != 3 {
		t.Fatalf("count = %v", cnt.Rows[0][0])
	}
}

func TestInExpr(t *testing.T) {
	p := newTestProxy(t)
	seedEmployees(t, p)
	res := mustExec(t, p, "SELECT name FROM employees WHERE id IN (2, 3, 99)")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestParams(t *testing.T) {
	p := newTestProxy(t)
	seedEmployees(t, p)
	res := mustExec(t, p, "SELECT name FROM employees WHERE id = ?", sqldb.Int(2))
	if len(res.Rows) != 1 || res.Rows[0][0].S != "Bob" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestMinEncEnforced(t *testing.T) {
	p := newTestProxy(t)
	mustExec(t, p, "CREATE TABLE cards (id INT, ccn TEXT MINENC DET)")
	mustExec(t, p, "INSERT INTO cards (id, ccn) VALUES (1, '4111-1111')")
	// Equality (DET) is allowed.
	mustExec(t, p, "SELECT id FROM cards WHERE ccn = '4111-1111'")
	// Order (OPE) violates the floor.
	if _, err := p.Execute("SELECT id FROM cards WHERE ccn > 'a' LIMIT 1"); err == nil {
		t.Fatal("MINENC DET should forbid OPE reveal")
	}
}

func TestPlainColumns(t *testing.T) {
	p := newTestProxy(t)
	mustExec(t, p, "CREATE TABLE logs (id INT PLAIN, ts INT PLAIN, note TEXT)")
	mustExec(t, p, "INSERT INTO logs (id, ts, note) VALUES (1, 1000, 'secret'), (2, 2000, 'other')")
	// Arbitrary computation allowed on plain columns.
	res := mustExec(t, p, "SELECT id FROM logs WHERE ts % 3 = 1")
	if len(res.Rows) != 1 || res.Rows[0][0].I != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestUnsupportedQueries(t *testing.T) {
	p := newTestProxy(t)
	seedEmployees(t, p)
	bad := []string{
		// computation + comparison (§6)
		"SELECT name FROM employees WHERE salary > id * 2 + 10",
		// bitwise over encrypted column (Fig 9)
		"SELECT name FROM employees WHERE salary & 4 = 4",
		// function over encrypted column in predicate
		"SELECT name FROM employees WHERE lower_fn(name) = 'alice'",
	}
	for _, sql := range bad {
		if _, err := p.Execute(sql); err == nil {
			t.Errorf("%s: want error", sql)
		}
	}
}

func TestNoPlaintextAtServer(t *testing.T) {
	p := newTestProxy(t)
	seedEmployees(t, p)
	// Force all onion states to move: equality, order, join-free.
	mustExec(t, p, "SELECT id FROM employees WHERE name = 'Alice'")
	mustExec(t, p, "SELECT name FROM employees WHERE salary > 60000")

	// Scan every byte the server stores; no plaintext may appear.
	leakWords := []string{"Alice", "Bob", "Carol", "Dave", "Eve", "sales", "eng", "hr", "employees", "name", "dept", "salary"}
	for _, tn := range p.DB().TableNames() {
		tbl := p.DB().Table(tn)
		if strings.Contains(strings.Join(leakWords, " "), tn) {
			t.Errorf("server table name %q leaks schema", tn)
		}
		res, err := p.DB().ExecSQL("SELECT * FROM " + tn)
		if err != nil {
			t.Fatal(err)
		}
		for _, col := range res.Columns {
			for _, w := range leakWords {
				if strings.Contains(strings.ToLower(col), strings.ToLower(w)) {
					t.Errorf("server column %q leaks %q", col, w)
				}
			}
		}
		for _, row := range res.Rows {
			for _, v := range row {
				s := v.String()
				for _, w := range leakWords {
					if strings.Contains(s, w) {
						t.Errorf("server value %q leaks %q", s, w)
					}
				}
				// Plaintext salaries must not appear as integers.
				if v.Kind == sqldb.KindInt {
					for _, sal := range []int64{60000, 55000, 80000, 75000, 50000} {
						if v.I == sal {
							t.Errorf("server stores plaintext integer %d", sal)
						}
					}
				}
			}
		}
		_ = tbl
	}
}

func TestTrainingMode(t *testing.T) {
	db := sqldb.New()
	p, err := New(db, Options{HOMBits: 256, Training: true})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, p, "CREATE TABLE t (a INT, b TEXT)")
	mustExec(t, p, "SELECT a FROM t WHERE b = 'x'")
	mustExec(t, p, "SELECT a FROM t WHERE a < 5 LIMIT 1")
	mustExec(t, p, "SELECT a FROM t WHERE a > b * 2") // unsupported

	log := p.TrainingLog()
	var sawEq, sawOrd, sawWarn bool
	for _, ev := range log {
		if ev.Onion == onion.Eq && ev.Layer == onion.DET {
			sawEq = true
		}
		if ev.Onion == onion.Ord && ev.Layer == onion.OPE {
			sawOrd = true
		}
		if ev.Warning != "" {
			sawWarn = true
		}
	}
	if !sawEq || !sawOrd || !sawWarn {
		t.Fatalf("training log = %+v", log)
	}
	// Training must not touch the server.
	if got := db.Table("table1").RowCount(); got != 0 {
		t.Fatalf("training mode wrote %d rows", got)
	}
}

func TestIndexMaterialization(t *testing.T) {
	p := newTestProxy(t)
	seedEmployees(t, p)
	mustExec(t, p, "CREATE INDEX idx_name ON employees (name)")
	// Index waits for DET exposure (§3.3).
	cm := p.Table("employees").Col("name")
	if cm.idxEq {
		t.Fatal("index must not exist at RND")
	}
	mustExec(t, p, "SELECT id FROM employees WHERE name = 'Alice'")
	if !cm.idxEq {
		t.Fatal("index not materialized after DET adjustment")
	}
}

func TestNullHandling(t *testing.T) {
	p := newTestProxy(t)
	mustExec(t, p, "CREATE TABLE t (a INT, b TEXT)")
	mustExec(t, p, "INSERT INTO t (a, b) VALUES (1, NULL), (NULL, 'x')")
	res := mustExec(t, p, "SELECT a, b FROM t WHERE b IS NULL")
	if len(res.Rows) != 1 || res.Rows[0][0].I != 1 || !res.Rows[0][1].IsNull() {
		t.Fatalf("rows = %v", res.Rows)
	}
	res = mustExec(t, p, "SELECT COUNT(a) FROM t")
	if res.Rows[0][0].I != 1 {
		t.Fatalf("count = %v", res.Rows[0][0])
	}
}

func TestExpressionProjection(t *testing.T) {
	p := newTestProxy(t)
	seedEmployees(t, p)
	// Arithmetic over an encrypted column computed in-proxy (§3.5.1).
	res := mustExec(t, p, "SELECT salary * 2 + 10 AS double_pay FROM employees WHERE id = 23")
	if res.Rows[0][0].I != 120010 {
		t.Fatalf("got %v", res.Rows[0][0])
	}
	if res.Columns[0] != "double_pay" {
		t.Fatalf("columns = %v", res.Columns)
	}
}

func TestSelectStar(t *testing.T) {
	p := newTestProxy(t)
	seedEmployees(t, p)
	res := mustExec(t, p, "SELECT * FROM employees WHERE id = 2")
	if len(res.Rows) != 1 || len(res.Rows[0]) != 4 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][1].S != "Bob" || res.Rows[0][3].I != 55000 {
		t.Fatalf("row = %v", res.Rows[0])
	}
	if res.Columns[0] != "id" || res.Columns[3] != "salary" {
		t.Fatalf("columns = %v", res.Columns)
	}
}

func TestNegativeValues(t *testing.T) {
	p := newTestProxy(t)
	mustExec(t, p, "CREATE TABLE bal (id INT, amount INT)")
	mustExec(t, p, "INSERT INTO bal (id, amount) VALUES (1, -500), (2, 300)")
	res := mustExec(t, p, "SELECT SUM(amount) FROM bal")
	if res.Rows[0][0].I != -200 {
		t.Fatalf("sum = %v", res.Rows[0][0])
	}
	res = mustExec(t, p, "SELECT id FROM bal WHERE amount < 0")
	if len(res.Rows) != 1 || res.Rows[0][0].I != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestTransactionsPassThrough(t *testing.T) {
	p := newTestProxy(t)
	seedEmployees(t, p)
	mustExec(t, p, "BEGIN")
	mustExec(t, p, "UPDATE employees SET dept = 'x' WHERE id = 2")
	mustExec(t, p, "ROLLBACK")
	res := mustExec(t, p, "SELECT dept FROM employees WHERE id = 2")
	if res.Rows[0][0].S != "sales" {
		t.Fatalf("rollback failed: %v", res.Rows[0][0])
	}
}

func TestDropTable(t *testing.T) {
	p := newTestProxy(t)
	seedEmployees(t, p)
	mustExec(t, p, "DROP TABLE employees")
	if _, err := p.Execute("SELECT * FROM employees"); err == nil {
		t.Fatal("dropped table still queryable")
	}
}

func TestOrderByTextInProxy(t *testing.T) {
	p := newTestProxy(t)
	seedEmployees(t, p)
	res := mustExec(t, p, "SELECT name FROM employees ORDER BY name")
	want := []string{"Alice", "Bob", "Carol", "Dave", "Eve"}
	for i, w := range want {
		if res.Rows[i][0].S != w {
			t.Fatalf("rows = %v", res.Rows)
		}
	}
}

func TestGroupByIntKey(t *testing.T) {
	p := newTestProxy(t)
	mustExec(t, p, "CREATE TABLE orders (cust INT, total INT)")
	mustExec(t, p, "INSERT INTO orders (cust, total) VALUES (1, 10), (1, 20), (2, 5)")
	res := mustExec(t, p, "SELECT cust, SUM(total) FROM orders GROUP BY cust ORDER BY cust")
	if len(res.Rows) != 2 || res.Rows[0][1].I != 30 || res.Rows[1][1].I != 5 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

// TestServerPlanCounters checks that proxy stats surface how the server
// executed the rewritten queries: in the default configuration every
// SELECT the proxy emits runs on the compiled pipeline, and an encrypted
// equi-join (DET onions on both sides) executes as a hash join.
func TestServerPlanCounters(t *testing.T) {
	p := newTestProxy(t)
	seedEmployees(t, p)
	mustExec(t, p, "CREATE TABLE depts (dept TEXT, budget INT)")
	for _, r := range []string{"('sales', 100)", "('eng', 200)", "('hr', 300)"} {
		mustExec(t, p, "INSERT INTO depts (dept, budget) VALUES "+r)
	}
	res := mustExec(t, p, "SELECT employees.name, depts.budget FROM employees, depts WHERE employees.dept = depts.dept")
	if len(res.Rows) != 5 {
		t.Fatalf("join rows = %d, want 5", len(res.Rows))
	}
	st := p.Stats().Server
	if st.Compiled == 0 {
		t.Fatalf("no compiled executions surfaced: %+v", st)
	}
	if st.HashJoins == 0 {
		t.Fatalf("encrypted equi-join did not hash-join: %+v", st)
	}
}

// TestHomSumStepAllocs: once hom_sum's temporaries have grown to the
// modulus, a step multiplies into the accumulator without allocating, and
// the product still decrypts to the sum.
func TestHomSumStepAllocs(t *testing.T) {
	p := newTestProxy(t)
	k := p.HOMKey()
	ct, err := k.EncryptInt64(7)
	if err != nil {
		t.Fatal(err)
	}
	args := []sqldb.Value{sqldb.Blob(k.CiphertextBytes(ct))}
	s := &homSumState{n2: k.N2}
	s.acc.SetInt64(1)
	if err := s.Step(args); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(99, func() { s.Step(args) }); n != 0 && !raceEnabled {
		t.Fatalf("hom_sum step allocates %v times", n)
	}
	out, err := s.Final()
	if err != nil {
		t.Fatal(err)
	}
	// AllocsPerRun makes one warm-up call besides its 99.
	if sum, err := k.DecryptInt64(k.CiphertextFromBytes(out.B)); err != nil || sum != 7*101 {
		t.Fatalf("hom_sum of 101 sevens decrypts to %d, %v", sum, err)
	}
}

// TestMatcherCacheConcurrent: searchswp's token cache is shared by every
// session and shard. Goroutines look up more tokens than it holds, so it
// is also cleared while others read it; every lookup must still match.
func TestMatcherCacheConcurrent(t *testing.T) {
	c := search.New([]byte("key"))
	var blobs [][]byte
	var tokens []search.Token
	for i := 0; i < 2*matcherCacheSize; i++ {
		w := fmt.Sprintf("kw%04d", i)
		blob, err := c.EncryptText(w + " other")
		if err != nil {
			t.Fatal(err)
		}
		blobs, tokens = append(blobs, blob), append(tokens, c.TokenFor(w))
	}
	var cache matcherCache
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range tokens {
				j := (i + g*matcherCacheSize/2) % len(tokens)
				if !cache.get(tokens[j]).Match(blobs[j]) {
					t.Errorf("token %d did not match its blob", j)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
