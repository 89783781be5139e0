package sharded

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/proxy"
	"repro/internal/sqldb"
	"repro/internal/sqlparser"
	"repro/internal/store"
)

// TestFeedColumns pins the columns each FROM entry's feed reads: those a
// reference of the statement can resolve to in that entry by sqldb's
// scope rule, every column under a star, one column for an entry the
// statement never names. runEquivalence runs the same shapes on one store
// and on shards and requires the same rows or the same failure.
func TestFeedColumns(t *testing.T) {
	e := New(2)
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, grp TEXT, val INT, pad TEXT)")
	mustExec(t, e, "CREATE TABLE t2 (id INT PRIMARY KEY, ref INT)")
	for _, c := range []struct {
		sql  string
		want string // per entry; [] reads every column
	}{
		// Ambiguous bare id: both entries feed it, so the coordinator
		// fails as one store does.
		{"SELECT id FROM t JOIN t2 ON t2.ref = t.id", "[[id] [id ref]]"},
		// A table name qualifies an aliased entry.
		{"SELECT t.val, b.ref FROM t a JOIN t2 b ON b.ref = a.id", "[[id val] [ref]]"},
		{"SELECT a.grp, b.val FROM t a JOIN t b ON b.id = a.val WHERE a.pad = 'upd'", "[[grp val pad] [id val]]"},
		// t2 has no val: nothing to feed, and the coordinator fails.
		{"SELECT t2.val FROM t JOIN t2 ON t2.ref = t.id", "[[id] [ref]]"},
		// The bare alias ref also names t2's column; t2.id is read only by ORDER BY.
		{"SELECT t.val AS ref FROM t JOIN t2 ON t2.ref = t.id ORDER BY ref, t2.id", "[[id val] [id ref]]"},
		{"SELECT COUNT(*) FROM t, t2", "[[id] [id]]"},
		{"SELECT grp, COUNT(*) FROM t, t2 WHERE ref > 3 GROUP BY grp HAVING SUM(val) > 0", "[[grp val] [ref]]"},
		{"SELECT * FROM t JOIN t2 ON t2.ref = t.id", "[]"},
	} {
		st, err := sqlparser.Parse(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		s := st.(*sqlparser.SelectStmt)
		if got := fmt.Sprint(feedColumns(s, e.tablesOf(s.From))); got != c.want {
			t.Errorf("%s: feeds read %s, want %s", c.sql, got, c.want)
		}
	}

	// The benchmark's analytic join as the proxy rewrites it: 4 of the
	// users table's server columns and 3 of the orders table's.
	var joins []*sqlparser.SelectStmt
	eng := New(2)
	p, err := proxy.NewOnEngine(joinRecorder{Engine: eng, joins: &joins}, proxy.Options{HOMBits: 256})
	if err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		"CREATE TABLE users (id INT PRIMARY KEY, grp INT, name TEXT, bio TEXT)",
		"CREATE TABLE orders (id INT PRIMARY KEY, uid INT, grp INT, amt INT, day INT, note TEXT)",
		"INSERT INTO users (id, grp, name, bio) VALUES (1, 1, 'ann', 'kw0001'), (2, 0, 'bob', 'kw0002')",
		"INSERT INTO orders (id, uid, grp, amt, day, note) VALUES (1, 1, 1, 100, 3, 'kw0003'), (2, 2, 0, 200, 4, 'kw0004')",
		"SELECT u.name, o.amt FROM users u JOIN orders o ON o.uid = u.id WHERE u.grp = 1",
	} {
		if _, err := p.Execute(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	if len(joins) == 0 {
		t.Fatal("the proxy sent no join")
	}
	join := joins[len(joins)-1]
	const want = "[[c1_jadj c2_eq c3_eq c3_iv] [c2_jadj c4_eq c4_iv]]"
	if got := fmt.Sprint(feedColumns(join, eng.tablesOf(join.From))); got != want {
		t.Fatalf("%s: feeds read %s, want %s", join, got, want)
	}
}

// joinRecorder keeps every multi-table SELECT its connections run.
type joinRecorder struct {
	*Engine
	joins *[]*sqlparser.SelectStmt
}

func (r joinRecorder) NewConn() store.Conn {
	return joinRecConn{Conn: r.Engine.NewConn(), joins: r.joins}
}

type joinRecConn struct {
	store.Conn
	joins *[]*sqlparser.SelectStmt
}

func (c joinRecConn) Exec(st sqlparser.Statement, params ...sqldb.Value) (*sqldb.Result, error) {
	if s, ok := st.(*sqlparser.SelectStmt); ok && len(s.From) > 1 {
		*c.joins = append(*c.joins, s)
	}
	return c.Conn.Exec(st, params...)
}

// BenchmarkCrossShardJoin times the benchmark's two analytic join shapes
// on plaintext tables of the analytic-shard2 workload's size (500 users in
// 8 groups, 600 orders, the same indexes) at 1, 2 and 8 shards: join, a
// group's users with their orders, and join_groupby, every order summed
// per user group. The ratio of a sharded arm to shards=1 is what a
// cross-shard join costs over one store.
func BenchmarkCrossShardJoin(b *testing.B) {
	const users, orders, groups = 500, 600, 8
	shapes := []struct{ name, sql string }{
		{"join", "SELECT u.name, o.amt FROM users u JOIN orders o ON o.uid = u.id WHERE u.grp = 3"},
		{"join_groupby", "SELECT u.grp, COUNT(*), SUM(o.amt) FROM users u JOIN orders o ON o.uid = u.id GROUP BY u.grp"},
	}
	for _, shards := range []int{1, 2, 8} {
		e := New(shards)
		for _, sql := range []string{
			"CREATE TABLE users (id INT PRIMARY KEY, grp INT, name TEXT, bio TEXT)",
			"CREATE TABLE orders (id INT PRIMARY KEY, uid INT, grp INT, amt INT, day INT, note TEXT)",
			"CREATE INDEX orders_uid ON orders (uid)",
			"CREATE INDEX orders_amt ON orders (amt)",
			"CREATE INDEX users_grp ON users (grp)",
		} {
			mustExec(b, e, sql)
		}
		load := func(head string, n int, row func(i int) string) {
			for lo := 0; lo < n; lo += 50 {
				var rows []string
				for i := lo; i < min(lo+50, n); i++ {
					rows = append(rows, row(i))
				}
				mustExec(b, e, head+strings.Join(rows, ", "))
			}
		}
		load("INSERT INTO users (id, grp, name, bio) VALUES ", users, func(i int) string {
			return fmt.Sprintf("(%d, %d, 'user-%05d', 'kw%04d kw%04d')", i, i%groups, i, i%1000, i*7%1000)
		})
		load("INSERT INTO orders (id, uid, grp, amt, day, note) VALUES ", orders, func(i int) string {
			uid := i * 37 % users
			return fmt.Sprintf("(%d, %d, %d, %d, %d, 'kw%04d')", i, uid, uid%groups, i%1000*100000+i, i%365, i%1000)
		})
		for _, sh := range shapes {
			b.Run(fmt.Sprintf("%s/shards=%d", sh.name, shards), func(b *testing.B) {
				st, err := sqlparser.Parse(sh.sql)
				if err != nil {
					b.Fatal(err)
				}
				c := e.NewConn()
				defer c.Close()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := c.Exec(st); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
