package sharded

import (
	"fmt"
	"testing"

	"repro/internal/sqldb"
	"repro/internal/sqlparser"
	"repro/internal/store"
	"repro/internal/store/single"
)

// FuzzCrossShardSelect runs every SELECT the fuzzer finds on one store and
// on three shards loaded with the same rows, and requires both to fail or
// both to return the same multiset of rows under the same column names.
// Each column holds one value kind plus NULLs, as a CryptDB onion column
// does. The seed corpus (testdata/fuzz) is the statement texts of
// runEquivalence and of the benchmark's analytic mix.
func FuzzCrossShardSelect(f *testing.F) {
	ref, dut := single.New(sqldb.New()), New(3)
	for _, e := range []store.Engine{ref, dut} {
		loadFuzzTables(f, e)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		st, err := sqlparser.Parse(sql)
		if err != nil {
			return
		}
		if s, ok := st.(*sqlparser.SelectStmt); !ok || !deterministic(s) {
			return
		}
		r1, err1 := ref.ExecSQL(sql)
		r2, err2 := dut.ExecSQL(sql)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("%s: single err=%v sharded err=%v", sql, err1, err2)
		}
		if err1 == nil {
			if fmt.Sprint(r1.Columns) != fmt.Sprint(r2.Columns) {
				t.Fatalf("%s: columns %v vs %v", sql, r1.Columns, r2.Columns)
			}
			compareResults(t, sql, r1, r2, false)
		}
	})
}

// loadFuzzTables creates runEquivalence's and the analytic mix's tables
// with their indexes, and about sixty rows across them.
func loadFuzzTables(tb testing.TB, e store.Engine) {
	exec := func(sql string, params ...sqldb.Value) {
		if _, err := e.ExecSQL(sql, params...); err != nil {
			tb.Fatalf("%s: %v", sql, err)
		}
	}
	for _, ddl := range []string{
		"CREATE TABLE t (id INT PRIMARY KEY, grp TEXT, val INT, pad TEXT)",
		"CREATE INDEX t_val ON t (val)",
		"CREATE TABLE t2 (id INT PRIMARY KEY, ref INT)",
		"CREATE TABLE users (id INT PRIMARY KEY, grp INT, name TEXT, bio TEXT)",
		"CREATE TABLE orders (id INT PRIMARY KEY, uid INT, grp INT, amt INT, day INT, note TEXT)",
		"CREATE INDEX orders_uid ON orders (uid)",
		"CREATE INDEX orders_amt ON orders (amt)",
		"CREATE INDEX users_grp ON users (grp)",
	} {
		exec(ddl)
	}
	orNull := func(v sqldb.Value, null bool) sqldb.Value {
		if null {
			return sqldb.Null()
		}
		return v
	}
	colors := []string{"red", "green", "blue", "cyan"}
	for i := 1; i <= 20; i++ {
		exec("INSERT INTO t (id, grp, val, pad) VALUES (?, ?, ?, ?)", sqldb.Int(int64(i)),
			orNull(sqldb.Text(colors[i%4]), i%6 == 0), orNull(sqldb.Int(int64(i*37%50)), i%7 == 0), sqldb.Text("pad"))
	}
	for i := 1; i <= 10; i++ {
		exec("INSERT INTO t2 (id, ref) VALUES (?, ?)", sqldb.Int(int64(i)), orNull(sqldb.Int(int64(i*3%20+1)), i%4 == 0))
	}
	word := func(i int) string { return fmt.Sprintf("kw%04d", i%5) }
	for i := 0; i < 12; i++ {
		exec("INSERT INTO users (id, grp, name, bio) VALUES (?, ?, ?, ?)", sqldb.Int(int64(i)), sqldb.Int(int64(i%3)),
			orNull(sqldb.Text(fmt.Sprintf("user-%05d", i)), i%5 == 4), sqldb.Text(word(i)+" "+word(i+2)))
	}
	for i := 0; i < 18; i++ {
		exec("INSERT INTO orders (id, uid, grp, amt, day, note) VALUES (?, ?, ?, ?, ?, ?)", sqldb.Int(int64(i)),
			orNull(sqldb.Int(int64(i%12)), i%8 == 7), sqldb.Int(int64(i%12%3)), sqldb.Int(int64(i%6*100000+i)),
			sqldb.Int(int64(i%7)), orNull(sqldb.Text(word(i)+" "+word(i*3)), i%9 == 8))
	}
}

// deterministic reports whether one store's answer to s depends on the
// rows alone, not on the order a scan meets them — only then must two
// topologies agree. LIMIT/OFFSET needs a single-table, ungrouped ORDER BY
// that ends in the unique id; a grouped query may read a column outside an
// aggregate only as one of its GROUP BY expressions (or an alias of a
// select item); and at most three FROM entries keep cross joins small.
func deterministic(s *sqlparser.SelectStmt) bool {
	if len(s.From) > 3 {
		return false
	}
	isAgg := func(ex sqlparser.Expr) bool {
		fc, ok := ex.(*sqlparser.FuncCall)
		return ok && builtinAggs[fc.Name]
	}
	grouped := len(s.GroupBy) > 0 || (s.Having != nil && anyExpr(s.Having, isAgg))
	for _, se := range s.Exprs {
		grouped = grouped || (!se.Star && anyExpr(se.Expr, isAgg))
	}
	for _, o := range s.OrderBy {
		grouped = grouped || anyExpr(o.Expr, isAgg)
	}
	if s.Limit != nil || s.Offset != nil {
		if grouped || len(s.From) != 1 || len(s.OrderBy) == 0 {
			return false
		}
		cr, ok := s.OrderBy[len(s.OrderBy)-1].Expr.(*sqlparser.ColRef)
		if !ok || cr.Column != "id" {
			return false
		}
		for _, se := range s.Exprs {
			if se.Alias == "id" {
				return false
			}
		}
	}
	if !grouped {
		return true
	}
	keys := make(map[string]bool)
	for _, g := range s.GroupBy {
		keys[g.String()] = true
	}
	var free func(ex sqlparser.Expr) bool // a column read GROUP BY does not fix
	free = func(ex sqlparser.Expr) bool {
		if keys[ex.String()] || isAgg(ex) {
			return false
		}
		if _, ok := ex.(*sqlparser.ColRef); ok {
			return true
		}
		for _, c := range children(ex) {
			if free(c) {
				return true
			}
		}
		return false
	}
	for _, se := range s.Exprs {
		if isStar(se) || free(se.Expr) {
			return false
		}
	}
	if s.Having != nil && free(s.Having) {
		return false
	}
	for _, o := range s.OrderBy {
		if visibleIndex(o.Expr, s.Exprs) < 0 && free(o.Expr) {
			return false
		}
	}
	return true
}
