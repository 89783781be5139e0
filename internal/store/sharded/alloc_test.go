package sharded

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/sqldb"
)

// TestCrossShardJoinAllocBudget holds the bytes a two-shard join over wide
// tables allocates per statement. Users, filtered by its own conjunct, is
// fed, reading only the three columns the statement names; orders, which no
// conjunct filters, is the local entry, so no shard ships its rows and each
// hashes only its own (orders.uid has no index). That is about 215 KB a
// statement on amd64; feeding orders to a coordinator join cost about
// 320 KB, and feeds of whole rows about 1 MB. Bytes come from
// MemStats.TotalAlloc over many statements; the budget is in Values so it
// scales with the word size.
func TestCrossShardJoinAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation")
	}
	const rows, wide = 500, 20
	e := New(2)
	cols := func(prefix string) (names, ddl []string) {
		for j := 1; j <= wide; j++ {
			names = append(names, fmt.Sprintf("%s%d", prefix, j))
			ddl = append(ddl, fmt.Sprintf("%s%d INT", prefix, j))
		}
		return names, ddl
	}
	uNames, uDDL := cols("u")
	oNames, oDDL := cols("o")
	mustExec(t, e, "CREATE TABLE users (id INT PRIMARY KEY, grp INT, "+strings.Join(uDDL, ", ")+")")
	mustExec(t, e, "CREATE TABLE orders (id INT PRIMARY KEY, uid INT, "+strings.Join(oDDL, ", ")+")")
	for lo := 0; lo < rows; lo += 50 {
		var us, os []string
		for i := lo; i < lo+50; i++ {
			vals := make([]string, wide)
			for j := range vals {
				vals[j] = fmt.Sprint(i*wide + j)
			}
			v := strings.Join(vals, ", ")
			us = append(us, fmt.Sprintf("(%d, %d, %s)", i, i%8, v))
			os = append(os, fmt.Sprintf("(%d, %d, %s)", i, i*7%rows, v))
		}
		mustExec(t, e, "INSERT INTO users (id, grp, "+strings.Join(uNames, ", ")+") VALUES "+strings.Join(us, ", "))
		mustExec(t, e, "INSERT INTO orders (id, uid, "+strings.Join(oNames, ", ")+") VALUES "+strings.Join(os, ", "))
	}

	const sql = "SELECT u.u1, o.o1 FROM users u JOIN orders o ON o.uid = u.id WHERE u.grp = 3"
	run := func() {
		res, err := e.ExecSQL(sql)
		if err != nil {
			t.Fatal(err)
		}
		// Users 3, 11, …, 499; i*7 % 500 gives each user one order.
		if len(res.Rows) != 63 {
			t.Fatalf("%d rows, want 63", len(res.Rows))
		}
	}
	// A Value is 56 bytes on amd64; scale the budget to this platform's.
	budget := 280 << 10 / 56 * int(unsafe.Sizeof(sqldb.Value{}))
	const stmts = 50
	run() // warm up: first-use state is not per-statement cost
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < stmts; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	per := int(after.TotalAlloc-before.TotalAlloc) / stmts
	t.Logf("join: %d B/statement (budget %d)", per, budget)
	if per > budget {
		t.Errorf("join: %d bytes per statement, budget %d (%d Values)", per, budget, budget/int(unsafe.Sizeof(sqldb.Value{})))
	}
}
