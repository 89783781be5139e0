package sharded_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/fsutil/crashfs"
	"repro/internal/proxy"
	"repro/internal/sqldb"
	"repro/internal/sqlparser"
	"repro/internal/store/sharded"
)

// TestAcrossShardsCrashPrefixes enumerates the crash states of the one
// commit of a write that spans shards: it records every file operation of
// the write on two durable shards and rebuilds the data directory after
// each prefix of them (crashfs). At every prefix every shard opens, and
// each shard's state is the one before the write on every shard, or the one
// after it on every shard; a second open changes no state and writes no
// byte. Through the proxy, the recovered store answers like a plaintext
// oracle, equality over every shard's rows after a peel among it. Every WAL
// write is synced before another shard's WAL is written, so the prefixes
// are the crash states of a file system that reorders unsynced writes too.
func TestAcrossShardsCrashPrefixes(t *testing.T) {
	opts := sqldb.DurabilityOptions{CheckpointBytes: -1}
	const acct = "CREATE TABLE acct (id INT PRIMARY KEY, bal INT, memo TEXT)"
	var load []string
	for i := 1; i <= 24; i++ {
		load = append(load, fmt.Sprintf("INSERT INTO acct (id, bal, memo) VALUES (%d, %d, 'm%d')", i, i*37%200, i%5))
	}
	rows := "INSERT INTO t (id, v) VALUES (1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (6, 6)"
	for _, sc := range []struct {
		name    string
		proxy   bool
		setup   []string
		write   func(t *testing.T, c *crashCase)
		queries []string // through the proxy, answered like the oracle at every prefix
	}{
		{name: "insert", setup: []string{"CREATE TABLE t (id INT PRIMARY KEY, v INT)", rows},
			write: func(t *testing.T, c *crashCase) {
				c.exec(t, "INSERT INTO t (id, v) VALUES (11, 1), (12, 2), (13, 3), (14, 4), (15, 5), (16, 6)")
			}},
		{name: "index", setup: []string{"CREATE TABLE t (id INT PRIMARY KEY, v INT)", rows},
			write: func(t *testing.T, c *crashCase) { c.exec(t, "CREATE INDEX t_v ON t (v)") }},
		{name: "drop", setup: []string{"CREATE TABLE t (id INT PRIMARY KEY, v INT)", rows},
			write: func(t *testing.T, c *crashCase) { c.exec(t, "DROP TABLE t") }},
		{name: "ddl-list", setup: []string{"CREATE TABLE t (id INT PRIMARY KEY, v INT)", rows},
			write: func(t *testing.T, c *crashCase) {
				var stmts []sqlparser.Statement
				for _, sql := range []string{"CREATE TABLE u (id INT PRIMARY KEY, w INT)", "CREATE INDEX t_v ON t (v)"} {
					st, err := sqlparser.Parse(sql)
					if err != nil {
						t.Fatal(err)
					}
					stmts = append(stmts, st)
				}
				if _, err := c.eng.ExecAutonomousListWithMeta(stmts, []byte("ddl-blob")); err != nil {
					t.Fatal(err)
				}
			}},
		{name: "peel", proxy: true, setup: append([]string{acct}, load...),
			write:   func(t *testing.T, c *crashCase) { c.both(t, "SELECT id FROM acct WHERE bal = 74") },
			queries: []string{"SELECT id FROM acct WHERE bal = 74", "SELECT id, memo FROM acct WHERE bal = 111", "SELECT COUNT(*) FROM acct WHERE memo = 'm3'"}},
		{name: "first-use-index", proxy: true, setup: append([]string{acct, "CREATE INDEX acct_bal ON acct (bal)"}, load...),
			write:   func(t *testing.T, c *crashCase) { c.both(t, "SELECT id FROM acct WHERE bal BETWEEN 50 AND 150") },
			queries: []string{"SELECT id FROM acct WHERE bal BETWEEN 50 AND 150", "SELECT id FROM acct WHERE bal > 120"}},
	} {
		t.Run(sc.name, func(t *testing.T) {
			rec := crashfs.Install(t)
			dir := t.TempDir()
			eng, err := sharded.Open(dir, 2, opts)
			if err != nil {
				t.Fatal(err)
			}
			c := &crashCase{eng: eng, orc: sqldb.New()}
			if sc.proxy {
				if c.p, err = proxy.NewOnEngine(eng, proxy.Options{HOMBits: 256, DataDir: dir}); err != nil {
					t.Fatal(err)
				}
			}
			for _, sql := range sc.setup {
				c.both(t, sql)
			}
			before := shardDigests(eng)
			rec.Start(t, dir)
			sc.write(t, c)
			log := rec.Stop()
			after := shardDigests(eng)
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}
			if reflect.DeepEqual(before, after) {
				t.Fatal("the write changed no shard")
			}
			log.CheckSyncOrder(t, "wal.log")
			var sides []string // what each prefix recovered, in order
			log.Prefixes(t, func(t *testing.T, dir string) {
				open := func() *sharded.Engine {
					t.Helper()
					e, err := sharded.Open(dir, 0, opts)
					if err != nil {
						t.Fatalf("open: %v", err)
					}
					return e
				}
				e := open()
				got := shardDigests(e)
				switch {
				case reflect.DeepEqual(got, before):
					sides = append(sides, "before")
				case reflect.DeepEqual(got, after):
					sides = append(sides, "after")
				default:
					t.Fatalf("shards hold %s\nbefore the write: %s\nafter it:         %s", got, before, after)
				}
				closeEngine(t, e)
				sizes := walSizes(t, dir)
				e = open()
				if again := shardDigests(e); !reflect.DeepEqual(again, got) {
					t.Fatalf("a second open moved the shards from %s to %s", got, again)
				}
				closeEngine(t, e)
				if again := walSizes(t, dir); !reflect.DeepEqual(again, sizes) {
					t.Fatalf("a second open grew the logs from %v to %v bytes", sizes, again)
				}
				if !sc.proxy {
					return
				}
				e = open()
				defer closeEngine(t, e)
				p, err := proxy.NewOnEngine(e, proxy.Options{HOMBits: 256, DataDir: dir})
				if err != nil {
					t.Fatal(err)
				}
				for _, q := range sc.queries {
					(&crashCase{p: p, orc: c.orc}).check(t, q)
				}
			})
			// Some crash after the first byte of the write recovers none of
			// it (a prepared part dropped), and some crash before the last
			// recovers all of it (a prepared part published by Open).
			if n := len(sides); n < 3 || sides[0] != "before" || sides[1] != "before" || sides[n-2] != "after" || sides[n-1] != "after" {
				t.Fatalf("the prefixes recovered %v: want before twice first and after twice last", sides)
			}
		})
	}
}

// TestDeciderRefusalCommitsNothing: a decider that refuses at apply — here
// over a key a committer outside the write took on its shard while shard
// 0's part was prepared — drops every prepared part: the statement fails
// saying nothing committed, no shard holds its rows, and a reopen recovers
// none of them.
func TestDeciderRefusalCommitsNothing(t *testing.T) {
	rec := crashfs.Install(t)
	dir := t.TempDir()
	opts := sqldb.DurabilityOptions{CheckpointBytes: -1}
	e, err := sharded.Open(dir, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	c := &crashCase{eng: e}
	c.exec(t, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	a, b := 1, 2
	for e.ShardOf("t", sqldb.Int(int64(a))) != 0 {
		a++
	}
	for e.ShardOf("t", sqldb.Int(int64(b))) != 1 {
		b++
	}
	waiting, release := rec.Hold(filepath.Join(sharded.ShardDir(dir, 0), "wal.log"))
	defer release()
	done := make(chan error, 1)
	go func() {
		_, err := e.ExecSQL(fmt.Sprintf("INSERT INTO t (id, v) VALUES (%d, 1), (%d, 1)", a, b))
		done <- err
	}()
	<-waiting // shard 0's prepared batch is being written; the decider has not begun
	if _, err := e.Shard(1).ExecSQL(fmt.Sprintf("INSERT INTO t (id, v) VALUES (%d, 9)", b)); err != nil {
		t.Fatal(err)
	}
	release()
	if err := <-done; err == nil || !strings.Contains(err.Error(), "nothing committed") || !strings.Contains(err.Error(), "unique") {
		t.Fatalf("the write over a taken key: err = %v, want the decider's refusal saying nothing committed", err)
	}
	check := func(when string) {
		t.Helper()
		res, err := e.ExecSQL("SELECT id, v FROM t")
		if err != nil {
			t.Fatal(err)
		}
		if got, want := rowSet(res), fmt.Sprint([]sqldb.Value{sqldb.Int(int64(b)), sqldb.Int(9)}); got != want {
			t.Fatalf("%s: the store holds %s, want only the row taken outside the write, %s", when, got, want)
		}
	}
	check("after the refusal")
	closeEngine(t, e)
	if e, err = sharded.Open(dir, 0, opts); err != nil {
		t.Fatal(err)
	}
	defer closeEngine(t, e)
	check("after a reopen")
}

// crashCase is a store under test: the engine, and a proxy over it beside
// a plaintext oracle when the scenario runs through one.
type crashCase struct {
	eng *sharded.Engine
	p   *proxy.Proxy
	orc *sqldb.DB
}

// exec runs a statement on the engine.
func (c *crashCase) exec(t *testing.T, sql string) {
	t.Helper()
	if _, err := c.eng.ExecSQL(sql); err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
}

// both runs a statement on the proxy and the oracle, or on the engine.
func (c *crashCase) both(t *testing.T, sql string) {
	t.Helper()
	if c.p == nil {
		c.exec(t, sql)
		return
	}
	if _, err := c.p.Execute(sql); err != nil {
		t.Fatalf("proxy: %s: %v", sql, err)
	}
	if _, err := c.orc.ExecSQL(sql); err != nil {
		t.Fatalf("oracle: %s: %v", sql, err)
	}
}

// check compares the proxy's answer with the oracle's, as multisets.
func (c *crashCase) check(t *testing.T, sql string) {
	t.Helper()
	got, err := c.p.Execute(sql)
	if err != nil {
		t.Fatalf("proxy: %s: %v", sql, err)
	}
	want, err := c.orc.ExecSQL(sql)
	if err != nil {
		t.Fatalf("oracle: %s: %v", sql, err)
	}
	if g, w := rowSet(got), rowSet(want); g != w {
		t.Fatalf("%s\nproxy:  %s\noracle: %s", sql, g, w)
	}
}

func rowSet(res *sqldb.Result) string {
	rows := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		rows[i] = fmt.Sprint(r)
	}
	sort.Strings(rows)
	return strings.Join(rows, "|")
}

// shardDigests lists every shard's StateDigest, short.
func shardDigests(e *sharded.Engine) []string {
	out := make([]string, e.Shards())
	for i := range out {
		out[i] = e.Shard(i).StateDigest()[:12]
	}
	return out
}

func walSizes(t *testing.T, dir string) []int64 {
	t.Helper()
	var out []int64
	for i := 0; ; i++ {
		fi, err := os.Stat(filepath.Join(sharded.ShardDir(dir, i), "wal.log"))
		if os.IsNotExist(err) {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, fi.Size())
	}
}

func closeEngine(t *testing.T, e *sharded.Engine) {
	t.Helper()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}
