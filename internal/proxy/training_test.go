package proxy

import (
	"testing"

	"repro/internal/onion"
	"repro/internal/sqldb"
	"repro/internal/sqlparser"
)

func TestTrainPlanAndDiscard(t *testing.T) {
	ddl := []string{
		"CREATE TABLE t (id INT, qty INT, note TEXT, amount INT)",
	}
	queries := []TrainQuery{
		{SQL: "SELECT note FROM t WHERE id = ?", Params: []sqldb.Value{sqldb.Int(1)}},
		{SQL: "SELECT id FROM t WHERE qty < ? LIMIT 3", Params: []sqldb.Value{sqldb.Int(5)}},
		{SQL: "SELECT SUM(amount) FROM t"},
	}
	plan, err := TrainPlan(ddl, queries)
	if err != nil {
		t.Fatal(err)
	}

	// id: equality only -> Eq only. qty: order -> Eq+Ord. note:
	// projection -> Eq. amount: sum -> Eq+Add.
	want := map[string][]onion.Onion{
		"t.id":     {onion.Eq},
		"t.qty":    {onion.Eq, onion.Ord},
		"t.note":   {onion.Eq},
		"t.amount": {onion.Eq, onion.Add},
	}
	for col, onions := range want {
		got := plan[col]
		if len(got) != len(onions) {
			t.Fatalf("%s: plan %v, want %v", col, got, onions)
		}
		for i := range onions {
			if got[i] != onions[i] {
				t.Fatalf("%s: plan %v, want %v", col, got, onions)
			}
		}
	}

	// A proxy built with the plan discards unneeded onions and still
	// answers the trained queries.
	db := sqldb.New()
	p, err := New(db, Options{HOMBits: 256, Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range ddl {
		mustExec(t, p, q)
	}
	mustExec(t, p, "INSERT INTO t (id, qty, note, amount) VALUES (1, 3, 'hello', 100), (2, 9, 'bye', 50)")
	res := mustExec(t, p, "SELECT note FROM t WHERE id = ?", sqldb.Int(1))
	if res.Rows[0][0].S != "hello" {
		t.Fatalf("rows = %v", res.Rows)
	}
	res = mustExec(t, p, "SELECT id FROM t WHERE qty < ? LIMIT 3", sqldb.Int(5))
	if len(res.Rows) != 1 || res.Rows[0][0].I != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	res = mustExec(t, p, "SELECT SUM(amount) FROM t")
	if res.Rows[0][0].I != 150 {
		t.Fatalf("sum = %v", res.Rows[0][0])
	}

	// Untrained query classes on discarded onions fail cleanly.
	if _, err := p.Execute("SELECT id FROM t WHERE note LIKE '%hello%'"); err == nil {
		t.Fatal("search on a column without a Search onion should fail")
	}
	if _, err := p.Execute("SELECT id FROM t WHERE amount > 10 LIMIT 1"); err == nil {
		t.Fatal("order on a column without an Ord onion should fail")
	}

	// Storage shrinks: a planned column set stores fewer server columns.
	cm := p.Table("t").Col("note")
	if cm.HasOnion(onion.Search) || cm.HasOnion(onion.Ord) || cm.HasOnion(onion.JAdj) {
		t.Fatal("plan did not discard unneeded onions")
	}
}

func TestPlanStorageReduction(t *testing.T) {
	ddl := []string{"CREATE TABLE t (a INT, b INT, c TEXT)"}
	queries := []TrainQuery{{SQL: "SELECT c FROM t WHERE a = ?", Params: []sqldb.Value{sqldb.Int(1)}}}
	plan, err := TrainPlan(ddl, queries)
	if err != nil {
		t.Fatal(err)
	}

	load := func(opts Options) int {
		db := sqldb.New()
		p, err := New(db, opts)
		if err != nil {
			t.Fatal(err)
		}
		mustExec(t, p, ddl[0])
		for i := 0; i < 20; i++ {
			mustExec(t, p, "INSERT INTO t (a, b, c) VALUES (?, ?, ?)",
				sqldb.Int(int64(i)), sqldb.Int(int64(i*7)), sqldb.Text("some text payload"))
		}
		return db.SizeBytes()
	}
	// "Full" is a plan that lists every onion: all present from the first
	// row. No plan at all defers everything but Eq, which after a load
	// stores what the trained plan stores plus the deferred columns' NULLs.
	full := load(Options{HOMBits: 256, Plan: OnionPlan{
		"t.a": onion.Onions(sqlparser.TypeInt), "t.b": onion.Onions(sqlparser.TypeInt), "t.c": onion.Onions(sqlparser.TypeText),
	}})
	planned := load(Options{HOMBits: 256, Plan: plan})
	deferred := load(Options{HOMBits: 256})
	if planned >= full {
		t.Fatalf("planned storage %d not smaller than full %d", planned, full)
	}
	if float64(planned) > 0.5*float64(full) {
		t.Fatalf("expected large reduction, got %d vs %d", planned, full)
	}
	if deferred < planned || float64(deferred) > 1.2*float64(planned) {
		t.Fatalf("a load with no plan stores %d bytes, the trained plan %d: want within 20%% above", deferred, planned)
	}
}
