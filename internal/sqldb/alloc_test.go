package sqldb

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"unsafe"
)

// TestSelectAllocBudget holds the bytes a SELECT allocates to the rows it
// returns: result rows and pipeline tuples are carved from chunks sized by
// nextChunk, so a point read pays for one row, where a full batchSize
// chunk would cost about 14 KB per projected column. Bytes come from
// MemStats.TotalAlloc over many statements (AllocsPerRun counts objects,
// not bytes); the budgets are in Values so they scale with the word size.
func TestSelectAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation")
	}
	db := New()
	mustExec(t, db, "CREATE TABLE w (id INT PRIMARY KEY, c1 INT, c2 INT, c3 TEXT, c4 TEXT, c5 INT, c6 INT, c7 TEXT)")
	mustExec(t, db, "CREATE INDEX w_c1 ON w (c1) USING BTREE")
	db.RegisterAggUDF("agg_nop", func() AggState { return nopAgg{} })
	for i := 0; i < 1000; i++ {
		mustExec(t, db, "INSERT INTO w (id, c1, c2, c3, c4, c5, c6, c7) VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
			Int(int64(i)), Int(int64(i)), Int(int64(i%7)), Text(fmt.Sprintf("t%d", i)), Text("pad"), Int(3), Int(int64(-i)), Text("x"))
	}
	// kib is a budget of n KiB where a Value is 56 bytes (amd64), scaled
	// to this platform's Value.
	value := int(unsafe.Sizeof(Value{}))
	kib := func(n int) int { return n << 10 / 56 * value }
	cases := []struct {
		name, sql string
		rows      int
		budget    int // bytes per statement
	}{
		{"point", "SELECT c1, c2, c3, c4, c5, c6, c7 FROM w WHERE id = ?", 1, kib(8)},
		{"range10", "SELECT c1, c2, c3, c4, c5, c6, c7 FROM w WHERE c1 >= ? AND c1 < ? + 10", 10, kib(16)},
		// An aggregate UDF over all 1000 rows in 7 groups: about 7 KB with
		// one argument slice per group; one per row was 70 KB.
		{"udf_groupby", "SELECT c2, agg_nop(c5) FROM w GROUP BY c2", 7, kib(16)},
	}
	const stmts = 200
	for _, c := range cases {
		run := func(i int) {
			k := Int(int64(i * 37 % 900))
			var params []Value
			for range strings.Count(c.sql, "?") {
				params = append(params, k)
			}
			res, err := db.ExecSQL(c.sql, params...)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if len(res.Rows) != c.rows {
				t.Fatalf("%s: %d rows, want %d", c.name, len(res.Rows), c.rows)
			}
		}
		run(0) // warm up: first-use state is not per-statement cost
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < stmts; i++ {
			run(i)
		}
		runtime.ReadMemStats(&after)
		per := int(after.TotalAlloc-before.TotalAlloc) / stmts
		t.Logf("%s: %d B/statement (budget %d)", c.name, per, c.budget)
		if per > c.budget {
			t.Errorf("%s: %d bytes per statement, budget %d (%d Values)", c.name, per, c.budget, c.budget/value)
		}
	}
}
