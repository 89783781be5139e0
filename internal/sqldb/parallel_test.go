package sqldb

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// forceParallel shrinks the morsel size and the row-count gate so small
// test tables split into many morsels, and widens the token pool so
// explicit worker counts are honored even on a single-CPU runner. Restored
// on cleanup.
func forceParallel(t *testing.T) {
	t.Helper()
	oldMorsel, oldMin := morselSlots, parallelMinRows
	morselSlots, parallelMinRows = 64, 32
	execTokens.ensureCap(8)
	t.Cleanup(func() {
		morselSlots, parallelMinRows = oldMorsel, oldMin
	})
}

// execPair runs one statement on the parallel and the serial arm and
// requires matching success/failure.
func execPair(t *testing.T, par, ser *DB, sql string, params ...Value) (*Result, *Result) {
	t.Helper()
	rp, errP := par.ExecSQL(sql, params...)
	rs, errS := ser.ExecSQL(sql, params...)
	if (errP == nil) != (errS == nil) {
		t.Fatalf("%q: parallel err=%v, serial err=%v", sql, errP, errS)
	}
	if errP != nil && errP.Error() != errS.Error() {
		t.Fatalf("%q: error text differs:\n  parallel: %v\n  serial:   %v", sql, errP, errS)
	}
	return rp, rs
}

// seedParallelPair builds two identical compiled databases: one running
// morsel-parallel with 4 workers, one forced serial (-exec-workers 1),
// which is the equivalence oracle. Identical statement streams give
// identical slot layouts, so results must match bit-for-bit in order.
func seedParallelPair(t *testing.T) (*DB, *DB) {
	t.Helper()
	par, ser := New(), New()
	par.SetExecWorkers(4)
	ser.SetExecWorkers(1)
	for _, ddl := range []string{
		"CREATE TABLE t1 (id INT PRIMARY KEY, grp TEXT, a INT, b INT)",
		"CREATE INDEX t1_a ON t1 (a) USING BTREE",
		"CREATE TABLE t2 (id INT PRIMARY KEY, fk INT, c INT)",
		"CREATE TABLE t3 (id INT PRIMARY KEY, k1 INT, k2 INT, d INT)",
	} {
		mustExec(t, par, ddl)
		mustExec(t, ser, ddl)
	}
	return par, ser
}

// parallelWorkload drives steps mixed mutate/query steps through both arms
// and asserts every result is identical in content AND order. Shared by
// the resident and paged equivalence tests.
func parallelWorkload(t *testing.T, par, ser *DB, steps int, r *rand.Rand) {
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
		execPair(t, par, ser, sql, params...)
	}
	tables := []string{"t1", "t2", "t3"}
	// Enough initial rows that every table clears parallelMinRows and
	// spans several morsels at the shrunken morsel size.
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
					execPair(t, par, ser, "UPDATE t1 SET a = ?, grp = ? WHERE id = ?", nullable(int64(r.Intn(40)), 0.1), grpVal(), Int(id))
				case "t2":
					execPair(t, par, ser, "UPDATE t2 SET fk = ?, c = ? WHERE id = ?", nullable(int64(r.Intn(60)), 0.1), nullable(int64(r.Intn(15)), 0.1), Int(id))
				case "t3":
					execPair(t, par, ser, "UPDATE t3 SET k1 = ?, d = ? WHERE id = ?", nullable(int64(r.Intn(15)), 0.1), Int(int64(r.Intn(100))), Int(id))
				}
			}
		case 2:
			if ids := live[table]; len(ids) > 3 {
				i := r.Intn(len(ids))
				id := ids[i]
				live[table] = append(ids[:i], ids[i+1:]...)
				execPair(t, par, ser, fmt.Sprintf("DELETE FROM %s WHERE id = ?", table), Int(id))
			}
		}
	}

	one := func(n int) func() []Value {
		return func() []Value { return []Value{Int(int64(r.Intn(n)))} }
	}
	type tmpl struct {
		sql    string
		params func() []Value
	}
	// No hash index on the join columns: every equi join builds its
	// transient table (striped-parallel on the parallel arm). Both arms
	// run the compiled pipeline, so row ORDER must match exactly even
	// without ORDER BY — the serial slot order is the contract.
	queries := []tmpl{
		{"SELECT * FROM t1 WHERE a < ?", one(40)},
		{"SELECT id, a + b * 2, -a FROM t1 WHERE (a > ? OR b < 5) AND grp != 'g3' ORDER BY id", one(40)},
		{"SELECT t1.id, t2.id, t2.c FROM t1, t2 WHERE t1.id = t2.fk AND t2.c > ?", one(15)},
		{"SELECT t1.grp, COUNT(*), SUM(t2.c) FROM t1 JOIN t2 ON t1.id = t2.fk WHERE t1.a > ? GROUP BY t1.grp HAVING COUNT(*) > 1 ORDER BY t1.grp", one(40)},
		{"SELECT t3.d, t2.c FROM t2 JOIN t3 ON t2.fk = t3.k1 AND t2.c = t3.k2", nil},
		{"SELECT DISTINCT grp FROM t1", nil},
		{"SELECT t1.grp, t3.d FROM t1, t2, t3 WHERE t1.id = t2.fk AND t2.c = t3.k1 AND t1.b > ?", one(25)},
		{"SELECT grp, SUM(a) + COUNT(b), AVG(a) FROM t1 GROUP BY grp", nil},
		{"SELECT grp, COUNT(DISTINCT a), MIN(a), MAX(b) FROM t1 GROUP BY grp ORDER BY grp", nil},
		{"SELECT id FROM t1 WHERE a BETWEEN ? AND 30 ORDER BY a DESC, id", one(20)},
		{"SELECT COUNT(DISTINCT t1.grp), MIN(t2.c), MAX(t2.c) FROM t1 JOIN t2 ON t1.id = t2.fk", nil},
		{"SELECT COUNT(*), SUM(a) FROM t1 WHERE a > 99999", nil},
		{"SELECT grp, COUNT(*) AS n FROM t1 WHERE grp IS NOT NULL GROUP BY grp ORDER BY n DESC, grp", nil},
		{"SELECT t2.fk, COUNT(*), SUM(t3.d) FROM t2 JOIN t3 ON t2.c = t3.k2 GROUP BY t2.fk", nil},
		{"SELECT grp, MIN(grp), MAX(grp) FROM t1 GROUP BY grp", nil},
	}

	for step := 0; step < steps; step++ {
		mutate()
		q := queries[r.Intn(len(queries))]
		var params []Value
		if q.params != nil {
			params = q.params()
		}
		rp, rs := execPair(t, par, ser, q.sql, params...)
		if rp != nil && rs != nil {
			// ordered=true always: parallel output must reproduce the
			// serial order bit for bit, ORDER BY or not.
			sameRows(t, fmt.Sprintf("step %d", step), q.sql, rp, rs, true)
			// And the serial arm must hold the reference interpreter's rows
			// (as a multiset: only the pipeline arms share a scan order). The
			// interpreter nested-loops these unindexed joins, so sample.
			if step%8 == 0 {
				ri, err := interpretSQL(t, ser, q.sql, params...)
				if err != nil {
					t.Fatalf("step %d: %q: interpreter: %v", step, q.sql, err)
				}
				sameRows(t, fmt.Sprintf("step %d vs interpreter", step), q.sql, rs, ri, false)
			}
		}
	}
}

// TestParallelEquivalence is the tentpole property test: >=400 mixed steps
// (inserts/updates/deletes interleaved with joins, GROUP BY/HAVING,
// DISTINCT, NULL-heavy data) where the morsel-parallel arm must match the
// serial compiled arm bit-identically, including row order.
func TestParallelEquivalence(t *testing.T) {
	forceParallel(t)
	par, ser := seedParallelPair(t)
	parallelWorkload(t, par, ser, 400, rand.New(rand.NewSource(11)))

	pp, ps := par.PlanCounters(), ser.PlanCounters()
	if pp.ParallelPipelines == 0 || pp.Morsels == 0 {
		t.Fatalf("parallel arm never went parallel: %+v", pp)
	}
	if ps.ParallelPipelines != 0 {
		t.Fatalf("serial ablation arm ran parallel pipelines: %+v", ps)
	}
	if pp.ExecWorkers != 4 || ps.ExecWorkers != 1 {
		t.Fatalf("ExecWorkers snapshots wrong: par=%d ser=%d", pp.ExecWorkers, ps.ExecWorkers)
	}
	t.Logf("parallel arm: %+v", pp)
}

// TestParallelPagedEquivalence runs the same property workload on paged
// databases with a deliberately tiny buffer cache, so morsel workers fault
// pages in concurrently while eviction is active.
func TestParallelPagedEquivalence(t *testing.T) {
	forceParallel(t)
	opts := DurabilityOptions{NoFsync: true, Paged: true, CacheBytes: 64 << 10, CheckpointBytes: -1}
	par, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer par.Close()
	ser, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ser.Close()
	par.SetExecWorkers(4)
	ser.SetExecWorkers(1)
	for _, ddl := range []string{
		"CREATE TABLE t1 (id INT PRIMARY KEY, grp TEXT, a INT, b INT)",
		"CREATE TABLE t2 (id INT PRIMARY KEY, fk INT, c INT)",
		"CREATE TABLE t3 (id INT PRIMARY KEY, k1 INT, k2 INT, d INT)",
	} {
		mustExec(t, par, ddl)
		mustExec(t, ser, ddl)
	}
	parallelWorkload(t, par, ser, 150, rand.New(rand.NewSource(13)))
	if pp := par.PlanCounters(); pp.ParallelPipelines == 0 {
		t.Fatalf("paged parallel arm never went parallel: %+v", pp)
	}
}

// TestParallelTxnView checks morsel-parallel execution against a
// transaction's merged read-your-writes view.
func TestParallelTxnView(t *testing.T) {
	forceParallel(t)
	par, ser := seedParallelPair(t)
	for i := 0; i < 300; i++ {
		sql := "INSERT INTO t1 (id, grp, a, b) VALUES (?, ?, ?, ?)"
		params := []Value{Int(int64(i)), Text(fmt.Sprintf("g%d", i%5)), Int(int64(i % 37)), Int(int64(i % 11))}
		execPair(t, par, ser, sql, params...)
	}
	sp, ss := par.NewSession(), ser.NewSession()
	defer sp.Close()
	defer ss.Close()
	both := func(sql string, params ...Value) (*Result, *Result) {
		t.Helper()
		rp, errP := sp.ExecSQL(sql, params...)
		rs, errS := ss.ExecSQL(sql, params...)
		if (errP == nil) != (errS == nil) {
			t.Fatalf("%q: parallel err=%v, serial err=%v", sql, errP, errS)
		}
		return rp, rs
	}
	both("BEGIN")
	both("UPDATE t1 SET a = 999 WHERE id < 40")
	both("INSERT INTO t1 (id, grp, a, b) VALUES (9001, 'g9', 7, 7)")
	for _, q := range []string{
		"SELECT * FROM t1 WHERE a > 500",
		"SELECT grp, COUNT(*), SUM(a) FROM t1 GROUP BY grp",
		"SELECT l.id, r.id FROM t1 l, t1 r WHERE l.a = r.b",
	} {
		rp, rs := both(q)
		sameRows(t, "txn", q, rp, rs, true)
	}
	both("ROLLBACK")
	if pp := par.PlanCounters(); pp.ParallelPipelines == 0 {
		t.Fatalf("txn-view reads never went parallel: %+v", pp)
	}
}

// TestParallelMinMaxKindFallback pins the merge-order hazard: partial
// MIN/MAX accumulators whose folds saw different value kinds must refuse
// to merge (forcing the serial rerun), and end-to-end a mixed-kind MIN/MAX
// must reproduce the serial result — or the serial error — exactly.
func TestParallelMinMaxKindFallback(t *testing.T) {
	// Deterministic unit check of the refusal itself (end-to-end, whether a
	// merge happens depends on which worker claims which morsel).
	stepOne := func(acc *cMinMaxAcc, v Value) {
		t.Helper()
		ev := &execEnv{tup: tuple{[]Value{v}}}
		if err := acc.step(ev); err != nil {
			t.Fatalf("step(%v): %v", v, err)
		}
	}
	slot := colSlot{ok: true}
	a := &cMinMaxAcc{slot: slot, min: true}
	b := &cMinMaxAcc{slot: slot, min: true}
	stepOne(a, Int(3))
	stepOne(b, Text("zzz"))
	if err := a.merge(b); err != errParallelFallback {
		t.Fatalf("mixed-kind merge = %v, want errParallelFallback", err)
	}
	c := &cMinMaxAcc{slot: slot, min: true}
	d := &cMinMaxAcc{slot: slot, min: true}
	stepOne(c, Int(3))
	stepOne(d, Int(9))
	if err := c.merge(d); err != nil || !c.any || c.best.I != 3 {
		t.Fatalf("same-kind merge = (%v, best %v)", err, c.best)
	}

	// End-to-end: mixed kinds in one column, dynamic typing permitting.
	forceParallel(t)
	par, ser := New(), New()
	par.SetExecWorkers(4)
	ser.SetExecWorkers(1)
	for _, db := range []*DB{par, ser} {
		mustExec(t, db, "CREATE TABLE mk (id INT PRIMARY KEY, grp INT, v INT)")
	}
	for i := 0; i < 200; i++ {
		v := Value(Int(int64(i % 50)))
		if i%7 == 0 {
			v = Text(fmt.Sprintf("t%d", i%50))
		}
		execPair(t, par, ser, "INSERT INTO mk (id, grp, v) VALUES (?, ?, ?)", Int(int64(i)), Int(int64(i%4)), v)
	}
	rp, rs := execPair(t, par, ser, "SELECT MIN(v), MAX(v), COUNT(*) FROM mk")
	if rp != nil {
		sameRows(t, "fallback", "mixed-kind MIN/MAX", rp, rs, true)
	}
	rp, rs = execPair(t, par, ser, "SELECT grp, MIN(v), MAX(v) FROM mk GROUP BY grp ORDER BY grp")
	if rp != nil {
		sameRows(t, "fallback", "grouped mixed-kind MIN/MAX", rp, rs, true)
	}
}

// TestParallelWorkerTokens exercises the global token pool: grants are
// bounded by capacity, released tokens are reusable, and ensureCap only
// grows.
func TestParallelWorkerTokens(t *testing.T) {
	p := &workerTokenPool{capacity: 3}
	if got := p.tryAcquire(2); got != 2 {
		t.Fatalf("tryAcquire(2) = %d", got)
	}
	if got := p.tryAcquire(5); got != 1 {
		t.Fatalf("tryAcquire(5) with 1 left = %d", got)
	}
	if got := p.tryAcquire(1); got != 0 {
		t.Fatalf("tryAcquire on empty pool = %d", got)
	}
	p.release(3)
	p.ensureCap(2) // must not shrink
	if got := p.tryAcquire(4); got != 3 {
		t.Fatalf("tryAcquire(4) after release = %d", got)
	}
	p.release(3)
	p.ensureCap(6)
	if got := p.tryAcquire(10); got != 6 {
		t.Fatalf("tryAcquire(10) after ensureCap(6) = %d", got)
	}
	p.release(6)
}

// TestParallelMorselDriver checks the morsel claim loop: every morsel runs
// exactly once on success, and on failure the error from the
// lowest-numbered morsel wins while all lower morsels still complete.
func TestParallelMorselDriver(t *testing.T) {
	const n = 64
	var ran [n]int32
	err := runParallelMorsels(n, 4, func(_, m int) error {
		ran[m]++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for m, c := range ran {
		if c != 1 {
			t.Fatalf("morsel %d ran %d times", m, c)
		}
	}

	// Every morsel >= 9 errors; morsel 9's error must win regardless of
	// scheduling, and morsels 0..8 must all have run.
	var ran2 [n]int32
	err = runParallelMorsels(n, 4, func(_, m int) error {
		ran2[m]++
		if m >= 9 {
			return fmt.Errorf("boom %d", m)
		}
		return nil
	})
	if err == nil || err.Error() != "boom 9" {
		t.Fatalf("want boom 9, got %v", err)
	}
	for m := 0; m < 9; m++ {
		if ran2[m] != 1 {
			t.Fatalf("morsel %d ran %d times before error", m, ran2[m])
		}
	}
}

// TestParallelBuildIndexes checks BuildIndexesParallel installs working
// hash and ordered indexes equivalent to serial CREATE INDEX.
func TestParallelBuildIndexes(t *testing.T) {
	forceParallel(t)
	db := New()
	db.SetExecWorkers(4)
	mustExec(t, db, "CREATE TABLE bi (id INT PRIMARY KEY, h INT, o INT)")
	for i := 0; i < 500; i++ {
		mustExec(t, db, "INSERT INTO bi (id, h, o) VALUES (?, ?, ?)", Int(int64(i)), Int(int64(i%40)), Int(int64(i%60)))
	}
	infos := []IndexInfo{{Column: "h"}, {Column: "o", Ordered: true}}
	if err := db.BuildIndexesParallel("bi", infos); err != nil {
		t.Fatal(err)
	}
	// Idempotent on re-run, like addIndex.
	if err := db.BuildIndexesParallel("bi", infos); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildIndexesParallel("nope", infos); err == nil {
		t.Fatal("expected error for missing table")
	}
	before := db.PlanCounters()
	res := mustExec(t, db, "SELECT COUNT(*) FROM bi WHERE h = 7")
	if res.Rows[0][0].I != 13 {
		t.Fatalf("eq count = %v", res.Rows[0][0])
	}
	res = mustExec(t, db, "SELECT COUNT(*) FROM bi WHERE o < 3")
	if res.Rows[0][0].I != 27 {
		t.Fatalf("range count = %v", res.Rows[0][0])
	}
	after := db.PlanCounters()
	if after.EqScans == before.EqScans || after.RangeScans == before.RangeScans {
		t.Fatalf("built indexes not used: before=%+v after=%+v", before, after)
	}
}

// TestParallelStatsPropagation checks the new PlanCounters fields render in
// the DB-level snapshot (the store-level sum is covered by the sharded
// engine's tests).
func TestParallelStatsPropagation(t *testing.T) {
	forceParallel(t)
	db := New()
	db.SetExecWorkers(3)
	mustExec(t, db, "CREATE TABLE s (id INT PRIMARY KEY, v INT)")
	var sb strings.Builder
	sb.WriteString("INSERT INTO s (id, v) VALUES ")
	for i := 0; i < 400; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d)", i, i%10)
	}
	mustExec(t, db, sb.String())
	mustExec(t, db, "SELECT v, COUNT(*) FROM s GROUP BY v")
	pc := db.PlanCounters()
	if pc.ParallelPipelines != 1 {
		t.Fatalf("ParallelPipelines = %d, want 1 (%+v)", pc.ParallelPipelines, pc)
	}
	if pc.Morsels < 2 {
		t.Fatalf("Morsels = %d, want >= 2", pc.Morsels)
	}
	if pc.ExecWorkers != 3 {
		t.Fatalf("ExecWorkers = %d, want 3", pc.ExecWorkers)
	}
}
