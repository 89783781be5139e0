package sqldb

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sqlparser"
)

// BenchmarkTxnStatements runs 1000 single-row primary-key UPDATEs either as
// autocommits or inside one transaction (committed at the end), over tables
// of 1000 and 10000 rows. One op is the whole batch of 1000 statements;
// ns/stmt divides it out. The "ordered" variants update a column that
// carries an ordered index, so every staged row moves off its index entry.
// In -short mode (the CI bench smoke) the table shrinks to 1/16.
func BenchmarkTxnStatements(b *testing.B) {
	for _, col := range []string{"v", "o"} {
		for _, rows := range []int{1000, 10000} {
			for _, mode := range []string{"autocommit", "txn"} {
				name := fmt.Sprintf("col=%s/rows=%d/%s", map[string]string{"v": "plain", "o": "ordered"}[col], rows, mode)
				b.Run(name, func(b *testing.B) { benchTxnUpdates(b, col, rows, mode == "txn") })
			}
		}
	}
}

func benchTxnUpdates(b *testing.B, col string, rows int, inTxn bool) {
	if testing.Short() {
		rows /= 16
	}
	const stmts = 1000
	db := New()
	mustBench := func(sql string) {
		if _, err := db.ExecSQL(sql); err != nil {
			b.Fatalf("%s: %v", sql, err)
		}
	}
	mustBench("CREATE TABLE t (id INT PRIMARY KEY, v INT, o INT)")
	mustBench("CREATE INDEX t_o ON t (o) USING BTREE")
	const batch = 500
	for base := 0; base < rows; base += batch {
		var sb strings.Builder
		sb.WriteString("INSERT INTO t (id, v, o) VALUES ")
		for i := base; i < base+batch && i < rows; i++ {
			if i > base {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, %d, %d)", i, i, i)
		}
		mustBench(sb.String())
	}
	upd, err := sqlparser.Parse(fmt.Sprintf("UPDATE t SET %s = ? WHERE id = ?", col))
	if err != nil {
		b.Fatal(err)
	}
	begin, _ := sqlparser.Parse("BEGIN")
	commit, _ := sqlparser.Parse("COMMIT")
	sess := db.NewSession()
	defer sess.Close()
	exec := func(st sqlparser.Statement, params ...Value) {
		if _, err := sess.Exec(st, params...); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if inTxn {
			exec(begin)
		}
		for i := 0; i < stmts; i++ {
			// 7919 is prime, so the batch touches min(stmts, rows) distinct
			// rows; the value differs every op, so no UPDATE is a no-op.
			id := (i * 7919) % rows
			exec(upd, Int(int64((n+1)*rows+id)), Int(int64(id)))
		}
		if inTxn {
			exec(commit)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*stmts), "ns/stmt")
}
