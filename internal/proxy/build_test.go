package proxy

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/onion"
	"repro/internal/sqldb"
	"repro/internal/sqlparser"
	"repro/internal/store"
	"repro/internal/store/sharded"
	"repro/internal/store/single"
)

// shapeDDL is one table with a plain column (pv) beside encrypted ones; the
// oracle declares the same table without the annotation.
const shapeDDL = "CREATE TABLE t (id INT PRIMARY KEY, pv INT PLAIN, ev INT, es TEXT)"

var shapeRows = []string{
	"INSERT INTO t (id, pv, ev, es) VALUES (1, 0, 2, 'a')",
	"INSERT INTO t (id, pv, ev, es) VALUES (2, 1, 4, 'b')",
	"INSERT INTO t (id, pv, ev, es) VALUES (3, 2, 6, 'b')",
	"INSERT INTO t (id, pv, ev, es) VALUES (4, NULL, 8, 'c')",
	"INSERT INTO t (id, pv, ev, es) VALUES (5, 3, NULL, 'c')",
	"INSERT INTO t (id, pv, ev, es) VALUES (6, 0, 9, 'c')",
}

// TestRefusedStatementLowersNothing: a statement the proxy refuses is
// refused before any onion adjustment, so the server sees no layer it did
// not see before, even when another clause of the statement needs one: the
// report, the adjustment count, the sealed blob and the WAL are as they
// were.
func TestRefusedStatementLowersNothing(t *testing.T) {
	shapes := newTestProxy(t)
	mustExec(t, shapes, shapeDDL)
	mustExec(t, shapes, "INSERT INTO t (id, pv, ev, es) VALUES (1, 2, 3, 'x1')")

	planned, err := New(sqldb.New(), Options{HOMBits: 256, Plan: OnionPlan{
		"t.a": {onion.Eq},
		"t.b": {onion.Eq},
	}})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, planned, "CREATE TABLE t (a TEXT, b INT)")
	mustExec(t, planned, "INSERT INTO t (a, b) VALUES ('x', 1)")

	emp := newTestProxy(t)
	seedEmployees(t, emp)

	// A persistent proxy per shape, where the parent lowered t.a and
	// committed a blob before the refusal; u is written by an open
	// transaction throughout.
	durable := func() *Proxy {
		dir := t.TempDir()
		eng, err := single.Open(dir, sqldb.DurabilityOptions{NoFsync: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { eng.Close() }) //nolint:errcheck // test teardown
		p, err := NewOnEngine(eng, Options{HOMBits: 256, DataDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		mustExec(t, p, "CREATE TABLE t (id INT PRIMARY KEY, a TEXT, b TEXT MINENC DET, v INT)")
		mustExec(t, p, "CREATE TABLE u (id INT PRIMARY KEY, c TEXT MINENC DET, w INT)")
		mustExec(t, p, "INSERT INTO t (id, a, b, v) VALUES (1, 'x', 'y', 3), (2, 'z', 'x', 9)")
		mustExec(t, p, "INSERT INTO u (id, c, w) VALUES (1, 'x', 4), (2, 'y', 1)")
		writer := p.NewSession()
		mustSess(t, writer, "BEGIN")
		mustSess(t, writer, "INSERT INTO u (id, c, w) VALUES (3, 'x', 7)")
		return p
	}
	// A persistent proxy whose tag.label holds duplicates while at RND. On
	// one store it asked for a UNIQUE index there, where nothing enforced
	// it; on two shards that request is the refused statement, since each
	// shard would check the index over its own rows only.
	dupes := func(eng store.Engine, dir string, unique bool) *Proxy {
		t.Cleanup(func() { eng.Close() }) //nolint:errcheck // test teardown
		p, err := NewOnEngine(eng, Options{HOMBits: 256, DataDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		mustExec(t, p, "CREATE TABLE tag (id INT PRIMARY KEY, label TEXT)")
		if unique {
			mustExec(t, p, "CREATE UNIQUE INDEX tag_label ON tag (label)")
		}
		mustExec(t, p, "INSERT INTO tag (id, label) VALUES (1, 'x'), (2, 'x'), (3, 'x'), (4, 'y')")
		return p
	}
	dupDir, dupShardDir := t.TempDir(), t.TempDir()
	dupEng, err := single.Open(dupDir, sqldb.DurabilityOptions{NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	dupShardEng, err := sharded.Open(dupShardDir, 2, sqldb.DurabilityOptions{NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	dup, dupSharded := dupes(dupEng, dupDir, true), dupes(dupShardEng, dupShardDir, false)

	for _, c := range []struct {
		p         *Proxy
		sql, want string
	}{
		{shapes, "SELECT id FROM t WHERE ev = pv", "not executable over encrypted data: t.ev: comparison with plain column t.pv"},
		{shapes, "SELECT id FROM t WHERE pv = ev", "not executable over encrypted data: t.ev: comparison with plain column t.pv"},
		{shapes, "SELECT id FROM t WHERE es = 'x1' AND (ev + 1) IS NULL", "t.ev: IS NULL over computed expression"},
		{planned, "SELECT a FROM t WHERE a = 'x' AND b < 5", "proxy: t.b has no Ord onion"},
		{emp, "SELECT name FROM employees WHERE salary > id * 2 + 10", "employees.salary: computation combined with comparison"},
		{emp, "SELECT name FROM employees WHERE dept = 'eng' AND salary & 4 = 4", "employees.salary: computation combined with comparison"},
		{emp, "SELECT name FROM employees WHERE dept = 'eng' AND lower_fn(name) = 'alice'", "employees.name: computation combined with comparison"},
		{durable(), "SELECT id FROM t WHERE a = 'x' AND b < 'z'",
			"proxy: query requires layer OPE on t.b but schema pins MINENC DET"},
		{durable(), "SELECT t.id FROM t JOIN u ON t.a = u.c",
			"proxy: query requires layer JOIN on u.c but schema pins MINENC DET"},
		{durable(), "SELECT t.id FROM t, u WHERE t.a = 'x' AND t.v < u.w",
			"proxy: range join between t.v and u.w requires DeclareOPEJoin before data load (§3.4)"},
		{durable(), "SELECT t.id FROM t, u WHERE t.a = 'x' AND u.c = 'x'",
			"proxy: onion adjustment on u conflicts with an open transaction; retry after it ends"},
		// The peel that would expose the duplicates and the UNIQUE build
		// are one list: the build's check refuses both.
		{dup, "SELECT id FROM tag WHERE label = 'y'", "duplicate value for unique index"},
		{dupSharded, "CREATE UNIQUE INDEX tag_label ON tag (label)", "each shard would check the index over its own rows only"},
	} {
		report, adjusted := c.p.Report(), c.p.Stats().OnionAdjustments
		blob, batches := c.p.Engine().Meta(), c.p.Engine().Stats().WAL.Batches
		_, err := c.p.Execute(c.sql)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one containing %q", c.sql, err, c.want)
		}
		if n := c.p.Stats().OnionAdjustments; n != adjusted {
			t.Errorf("%s: refused after %d onion adjustments", c.sql, n-adjusted)
		}
		if got := c.p.Report(); !reflect.DeepEqual(got, report) {
			t.Errorf("%s: refused, but the report moved:\n got %+v\nwant %+v", c.sql, got, report)
		}
		if !bytes.Equal(c.p.Engine().Meta(), blob) {
			t.Errorf("%s: refused, but a new sealed blob committed", c.sql)
		}
		if n := c.p.Engine().Stats().WAL.Batches; n != batches {
			t.Errorf("%s: refused after appending %d WAL batches", c.sql, n-batches)
		}
	}
	_, err = dup.Execute("SELECT id FROM tag WHERE label = 'x'")
	if !errors.Is(err, sqldb.ErrUniqueDuplicate) {
		t.Errorf("equality over duplicates: err = %v, want ErrUniqueDuplicate", err)
	}
	if cm := dup.Table("tag").Col("label"); cm.Onions[onion.Eq].Current() != onion.RND || cm.idxEq {
		t.Errorf("refused equality left tag.label's Eq at %s, indexed %v", cm.Onions[onion.Eq].Current(), cm.idxEq)
	}
}

// TestShapesMatchPlaintext: predicates over plain columns only run on the
// server as written, and ORDER BY an alias of COUNT(*) with a LIMIT sorts on
// the server; each answers as a plaintext database does.
func TestShapesMatchPlaintext(t *testing.T) {
	l := &lifecycle{t: t, p: newTestProxy(t), orc: sqldb.New()}
	mustExec(t, l.p, shapeDDL)
	if _, err := l.orc.ExecSQL(strings.Replace(shapeDDL, " PLAIN", "", 1)); err != nil {
		t.Fatal(err)
	}
	for _, r := range shapeRows {
		l.both(r)
	}
	for _, q := range []string{
		"SELECT id FROM t WHERE pv",
		"SELECT id FROM t WHERE NOT pv",
		"SELECT id FROM t WHERE ev > 3 AND pv",
		"SELECT id FROM t WHERE (pv + 1) IS NULL",
		"SELECT es, COUNT(*) AS c FROM t GROUP BY es ORDER BY c LIMIT 2",
		"SELECT es, COUNT(*) AS c FROM t GROUP BY es ORDER BY c DESC LIMIT 1",
		// An aggregate inside an expression needs its onion as much as a
		// bare one: Add for SUM, Eq at DET for COUNT(DISTINCT).
		"SELECT SUM(ev) + 1 FROM t",
		"SELECT COUNT(DISTINCT es) + 0 FROM t",
	} {
		l.check(q)
	}
	// An increment beside an assignment the server cannot compute joins
	// the two-query strategy.
	l.both("UPDATE t SET ev = ev + 1, es = es WHERE id = 2")
	l.check("SELECT id, ev, es FROM t")
	// The server statement runs without the client's parameters: the
	// proxy binds them into a plain column's predicate.
	for _, q := range []string{"SELECT id FROM t WHERE pv + ? > 2", "SELECT id FROM t WHERE pv IN (?, 2)"} {
		got, err := l.p.Execute(q, sqldb.Int(1))
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		want, err := l.orc.ExecSQL(q, sqldb.Int(1))
		if err != nil {
			t.Fatal(err)
		}
		if g, w := sortedRows(got), sortedRows(want); g != w {
			t.Errorf("%s\nproxy:  %s\noracle: %s", q, g, w)
		}
	}
	// The LIMIT keeps the two smallest groups, in order.
	res := mustExec(t, l.p, "SELECT es, COUNT(*) AS c FROM t GROUP BY es ORDER BY c LIMIT 2")
	if got := sortedRows(res); got != "a,1|b,2" || res.Rows[0][0].S != "a" {
		t.Errorf("ORDER BY c LIMIT 2 = %v", res.Rows)
	}
	if n := l.p.Stats().InProxySorts; n != 0 {
		t.Errorf("%d in-proxy sorts; every ORDER BY here has a LIMIT", n)
	}
	mustExec(t, l.p, "SELECT id FROM t ORDER BY ev, es")
	if n := l.p.Stats().InProxySorts; n != 2 {
		t.Errorf("one statement with two in-proxy sort keys counted %d", n)
	}
}

// recordingEngine records every statement and parameter the proxy sends to
// the engine, on the engine and on each connection.
type recordingEngine struct {
	store.Engine
	sent *[]string
}

func (r recordingEngine) record(st sqlparser.Statement, params []sqldb.Value) {
	s := st.String()
	for _, v := range params {
		s += " ; " + v.String()
	}
	*r.sent = append(*r.sent, s)
}

func (r recordingEngine) Exec(st sqlparser.Statement, params ...sqldb.Value) (*sqldb.Result, error) {
	r.record(st, params)
	return r.Engine.Exec(st, params...)
}

func (r recordingEngine) ExecWithMeta(st sqlparser.Statement, meta []byte, params ...sqldb.Value) (*sqldb.Result, error) {
	r.record(st, params)
	return r.Engine.ExecWithMeta(st, meta, params...)
}

func (r recordingEngine) ExecAutonomous(st sqlparser.Statement, params ...sqldb.Value) (*sqldb.Result, error) {
	r.record(st, params)
	return r.Engine.ExecAutonomous(st, params...)
}

func (r recordingEngine) ExecAutonomousWithMeta(st sqlparser.Statement, meta []byte, params ...sqldb.Value) (*sqldb.Result, error) {
	r.record(st, params)
	return r.Engine.ExecAutonomousWithMeta(st, meta, params...)
}

func (r recordingEngine) ExecAutonomousListWithMeta(stmts []sqlparser.Statement, meta []byte) (*sqldb.Result, error) {
	for _, st := range stmts {
		r.record(st, nil)
	}
	return r.Engine.ExecAutonomousListWithMeta(stmts, meta)
}

func (r recordingEngine) NewConn() store.Conn {
	return recordingConn{Conn: r.Engine.NewConn(), rec: r}
}

type recordingConn struct {
	store.Conn
	rec recordingEngine
}

func (c recordingConn) Exec(st sqlparser.Statement, params ...sqldb.Value) (*sqldb.Result, error) {
	c.rec.record(st, params)
	return c.Conn.Exec(st, params...)
}

func (c recordingConn) ExecWithMeta(st sqlparser.Statement, meta []byte, params ...sqldb.Value) (*sqldb.Result, error) {
	c.rec.record(st, params)
	return c.Conn.ExecWithMeta(st, meta, params...)
}

// TestNoClientLiteralReachesServer: every form that compares an encrypted
// column with a constant sends the server an encryption of the constant,
// never the constant: the client's literals appear in no statement and no
// parameter the engine receives, on the read, join, aggregate and write
// paths alike.
func TestNoClientLiteralReachesServer(t *testing.T) {
	const word, num, num2 = "zqxjvkw", "3141592653", "2718281828"
	var sent []string
	p, err := NewOnEngine(recordingEngine{Engine: single.New(sqldb.New()), sent: &sent}, Options{HOMBits: 256})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, p, "CREATE TABLE t (id INT PRIMARY KEY, ev INT, es TEXT)")
	mustExec(t, p, "CREATE TABLE u (id INT PRIMARY KEY, ev INT)")
	// The loads carry the literals too, which is allowed: they are the
	// rows the statements below must find.
	mustExec(t, p, "INSERT INTO t (id, ev, es) VALUES (1, "+num+", 'the "+word+" row'), (2, "+num2+", '"+word+"'), (3, 7, 'other')")
	mustExec(t, p, "INSERT INTO u (id, ev) VALUES (1, "+num+"), (2, 5)")
	loaded := len(sent)

	for _, c := range []struct {
		sql    string
		params []sqldb.Value
		rows   int // -1 for a write
	}{
		{"SELECT id FROM t WHERE es = '" + word + "'", nil, 1},
		{"SELECT id FROM t WHERE ev = " + num, nil, 1},
		{"SELECT id FROM t WHERE ev = ?", []sqldb.Value{sqldb.Int(3141592653)}, 1},
		{"SELECT id FROM t WHERE es != '" + word + "'", nil, 2},
		{"SELECT id FROM t WHERE ev < " + num, nil, 2},
		{"SELECT id FROM t WHERE " + num2 + " <= ev", nil, 2},
		{"SELECT id FROM t WHERE ev BETWEEN " + num2 + " AND " + num, nil, 2},
		{"SELECT id FROM t WHERE es IN ('" + word + "', 'x')", nil, 1},
		{"SELECT id FROM t WHERE ev IN (?, 1)", []sqldb.Value{sqldb.Int(2718281828)}, 1},
		{"SELECT id FROM t WHERE es LIKE '%" + word + "%'", nil, 2},
		{"SELECT t.id FROM t JOIN u ON t.ev = u.ev AND u.ev = " + num, nil, 1},
		{"SELECT es, COUNT(*) FROM t WHERE ev >= " + num2 + " GROUP BY es HAVING COUNT(*) > 0", nil, 2},
		{"SELECT SUM(ev) FROM t WHERE es = '" + word + "' HAVING SUM(ev) > " + num, nil, 0},
		{"UPDATE t SET ev = ev + 1 WHERE es = '" + word + "'", nil, -1},
		{"UPDATE t SET ev = ev * 2 WHERE ev >= " + num, nil, -1},
		{"UPDATE t SET es = 'other' WHERE ev < " + num2, nil, -1},
		{"DELETE FROM t WHERE es = '" + word + "'", nil, -1},
	} {
		res, err := p.Execute(c.sql, c.params...)
		if err != nil {
			t.Errorf("%s: %v", c.sql, err)
			continue
		}
		if c.rows >= 0 && len(res.Rows) != c.rows {
			t.Errorf("%s: %d rows, want %d", c.sql, len(res.Rows), c.rows)
		}
	}
	if len(sent) == loaded {
		t.Fatal("no statement recorded")
	}
	for _, s := range sent[loaded:] {
		for _, lit := range []string{word, num, num2} {
			if strings.Contains(s, lit) {
				t.Errorf("literal %s reached the server: %s", lit, clipSQL(s))
			}
		}
	}
}
