package proxy

import (
	"errors"
	"maps"
	"strings"
	"testing"

	"repro/internal/onion"
)

func TestRaiseOnionEq(t *testing.T) {
	p := newTestProxy(t)
	seedEmployees(t, p)

	// Expose DET via an equality query, then raise it back.
	mustExec(t, p, "SELECT id FROM employees WHERE name = 'Alice'")
	cm := p.Table("employees").Col("name")
	if cm.Onions[onion.Eq].Current() != onion.DET {
		t.Fatal("setup: Eq should be at DET")
	}
	if err := p.RaiseOnion("employees", "name", onion.Eq); err != nil {
		t.Fatal(err)
	}
	if cm.Onions[onion.Eq].Current() != onion.RND {
		t.Fatalf("Eq at %s after raise, want RND", cm.Onions[onion.Eq].Current())
	}

	// The column is fully functional: a later equality query re-adjusts
	// and returns correct results.
	res := mustExec(t, p, "SELECT id FROM employees WHERE name = 'Bob'")
	if len(res.Rows) != 1 || res.Rows[0][0].I != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// And plain projection still decrypts.
	res = mustExec(t, p, "SELECT name FROM employees WHERE id = 3")
	if res.Rows[0][0].S != "Carol" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

// TestRaiseOnionSurvivesRestart: the raised layer is persisted, so a
// reopened proxy knows the column is back at RND and peels it again for the
// next equality query instead of comparing DET tokens against RND data.
func TestRaiseOnionSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	db, p := openDurable(t, dir)
	seedEmployees(t, p)
	mustExec(t, p, "SELECT id FROM employees WHERE name = 'Alice'")
	if err := p.RaiseOnion("employees", "name", onion.Eq); err != nil {
		t.Fatal(err)
	}
	if n := p.Stats().OnionAdjustments; n != 2 {
		t.Errorf("OnionAdjustments = %d after a peel and a raise, want 2", n)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	_, p2 := openDurable(t, dir)
	if st := p2.Table("employees").Col("name").Onions[onion.Eq]; st.Current() != onion.RND {
		t.Errorf("reopened proxy has name Eq at %s, want RND", st.Current())
	}
	res := mustExec(t, p2, "SELECT id FROM employees WHERE name = 'Bob'")
	if len(res.Rows) != 1 || res.Rows[0][0].I != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

// TestRaiseOnionRefusedWhileTxnWrites: rows buffered by an open transaction
// were encrypted at DET and would commit under the raised RND layer, so the
// raise is refused with the retryable conflict, as an adjustment is.
func TestRaiseOnionRefusedWhileTxnWrites(t *testing.T) {
	p := newTestProxy(t)
	seedEmployees(t, p)
	mustExec(t, p, "SELECT id FROM employees WHERE name = 'Alice'")
	s := p.NewSession()
	defer s.Close() //nolint:errcheck // test teardown
	mustSess(t, s, "BEGIN")
	mustSess(t, s, "INSERT INTO employees (id, name, dept, salary) VALUES (9, 'Zed', 'ops', 1)")
	err := p.RaiseOnion("employees", "name", onion.Eq)
	if err == nil || !strings.Contains(err.Error(), "conflicts with an open transaction; retry") {
		t.Fatalf("raise with a writer's transaction open: %v", err)
	}
	mustSess(t, s, "COMMIT")
	for name, id := range map[string]int64{"Zed": 9, "Bob": 2} {
		res := mustExec(t, p, "SELECT id FROM employees WHERE name = '"+name+"'")
		if len(res.Rows) != 1 || res.Rows[0][0].I != id {
			t.Fatalf("%s: rows = %v", name, res.Rows)
		}
	}
	// With the transaction over, the raise goes ahead.
	if err := p.RaiseOnion("employees", "name", onion.Eq); err != nil {
		t.Fatal(err)
	}
	res := mustExec(t, p, "SELECT id FROM employees WHERE name = 'Zed'")
	if len(res.Rows) != 1 || res.Rows[0][0].I != 9 {
		t.Fatalf("rows after raise = %v", res.Rows)
	}
}

func TestRaiseOnionOrd(t *testing.T) {
	p := newTestProxy(t)
	seedEmployees(t, p)
	mustExec(t, p, "SELECT name FROM employees WHERE salary > 60000")
	cm := p.Table("employees").Col("salary")
	if cm.Onions[onion.Ord].Current() != onion.OPE {
		t.Fatal("setup: Ord should be at OPE")
	}
	if err := p.RaiseOnion("employees", "salary", onion.Ord); err != nil {
		t.Fatal(err)
	}
	if cm.Onions[onion.Ord].Current() != onion.RND {
		t.Fatal("Ord not raised")
	}
	res := mustExec(t, p, "SELECT name FROM employees WHERE salary BETWEEN 55000 AND 75000")
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestRaiseOnionNoop(t *testing.T) {
	p := newTestProxy(t)
	seedEmployees(t, p)
	// Already at RND: raising is a no-op, not an error.
	if err := p.RaiseOnion("employees", "name", onion.Eq); err != nil {
		t.Fatal(err)
	}
	// Unknown onion/table/column error paths.
	if err := p.RaiseOnion("employees", "name", onion.Add); err == nil {
		t.Fatal("want error for missing onion")
	}
	if err := p.RaiseOnion("nosuch", "name", onion.Eq); err == nil {
		t.Fatal("want error for missing table")
	}
}

func TestRaiseOnionWithNulls(t *testing.T) {
	p := newTestProxy(t)
	mustExec(t, p, "CREATE TABLE t (a INT, b TEXT)")
	mustExec(t, p, "INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL)")
	mustExec(t, p, "SELECT a FROM t WHERE b = 'x'")
	if err := p.RaiseOnion("t", "b", onion.Eq); err != nil {
		t.Fatal(err)
	}
	res := mustExec(t, p, "SELECT a FROM t WHERE b IS NULL")
	if len(res.Rows) != 1 || res.Rows[0][0].I != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestRangeJoinDeclared(t *testing.T) {
	p := newTestProxy(t)
	mustExec(t, p, "CREATE TABLE a (x INT)")
	mustExec(t, p, "CREATE TABLE b (y INT)")
	// Declared before load: both Ord onions share an OPE key (§3.4).
	if err := p.DeclareOPEJoin("a", "x", "b", "y"); err != nil {
		t.Fatal(err)
	}
	mustExec(t, p, "INSERT INTO a (x) VALUES (1), (5), (9)")
	mustExec(t, p, "INSERT INTO b (y) VALUES (4), (6)")
	res := mustExec(t, p, "SELECT COUNT(*) FROM a, b WHERE a.x < b.y")
	// pairs: (1,4) (1,6) (5,6) = 3
	if res.Rows[0][0].I != 3 {
		t.Fatalf("count = %v", res.Rows[0][0])
	}
}

func TestRangeJoinUndeclaredFails(t *testing.T) {
	p := newTestProxy(t)
	mustExec(t, p, "CREATE TABLE a (x INT)")
	mustExec(t, p, "CREATE TABLE b (y INT)")
	mustExec(t, p, "INSERT INTO a (x) VALUES (1)")
	mustExec(t, p, "INSERT INTO b (y) VALUES (2)")
	if _, err := p.Execute("SELECT COUNT(*) FROM a, b WHERE a.x < b.y"); err == nil {
		t.Fatal("undeclared range join should fail (§3.4)")
	}
}

func TestDeclareOPEJoinAfterLoadFails(t *testing.T) {
	p := newTestProxy(t)
	mustExec(t, p, "CREATE TABLE a (x INT)")
	mustExec(t, p, "CREATE TABLE b (y INT)")
	mustExec(t, p, "INSERT INTO a (x) VALUES (1)")
	if err := p.DeclareOPEJoin("a", "x", "b", "y"); err == nil {
		t.Fatal("declaring OPE-JOIN after data load should fail")
	}
}

// TestRaiseOnionFaultKeepsOneLayer: on every topology, a raise whose batch
// one shard refuses part-way leaves every row at the layer the metadata
// still names, byte for byte; the retry re-wraps them all.
func TestRaiseOnionFaultKeepsOneLayer(t *testing.T) {
	const q = "SELECT id FROM acct WHERE bal BETWEEN 100 AND 500"
	for _, ec := range engineCases {
		t.Run(ec.name, func(t *testing.T) {
			fe := &faultyEngine{Engine: ec.open(t)}
			l := newLifecycle(t, fe, Options{})
			l.load(30, 300)
			l.check(q)
			st := l.p.Table("acct").Col("bal").Onions[onion.Ord]
			before := serverValues(t, l.p, "acct", "bal", onion.Ord)

			fe.failAt = fe.listed + 150
			if err := l.p.RaiseOnion("acct", "bal", onion.Ord); !errors.Is(err, errInjected) {
				t.Fatalf("raise with a refused batch: %v", err)
			}
			if st.Current() != onion.OPE {
				t.Fatalf("a refused raise left the metadata at %s", st.Current())
			}
			if got := serverValues(t, l.p, "acct", "bal", onion.Ord); !maps.Equal(got, before) {
				t.Fatal("a refused raise changed stored rows")
			}
			l.check(q)

			if err := l.p.RaiseOnion("acct", "bal", onion.Ord); err != nil {
				t.Fatal(err)
			}
			after := serverValues(t, l.p, "acct", "bal", onion.Ord)
			for rid, v := range before {
				if after[rid] == v {
					t.Fatalf("row %d was not re-wrapped", rid)
				}
			}
			l.check(q)
		})
	}
}
