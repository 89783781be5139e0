package sqldb

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/sqlparser"
)

// parseList parses one statement list.
func parseList(t *testing.T, sqls ...string) []sqlparser.Statement {
	t.Helper()
	stmts := make([]sqlparser.Statement, len(sqls))
	for i, sql := range sqls {
		stmts[i] = mustParse(t, sql)
	}
	return stmts
}

// TestListDDLOneFrameReplays: a statement list that mixes row writes with
// CREATE INDEX commits as one WAL frame. The indexes apply after the rows,
// so a UNIQUE index the list's own UPDATE makes hold is built, and the
// frame replays to the same state on Open and on a follower.
func TestListDDLOneFrameReplays(t *testing.T) {
	dir := t.TempDir()
	opts := DurabilityOptions{CheckpointBytes: -1}
	prim, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer prim.Close()
	mustExec(t, prim, "CREATE TABLE t (id INT PRIMARY KEY, v TEXT, n INT)")
	mustExec(t, prim, "INSERT INTO t (id, v, n) VALUES (1, 'a', 7), (2, 'b', 7), (3, 'c', 9)")
	tap, err := prim.TapWAL(0)
	if err != nil {
		t.Fatal(err)
	}
	defer tap.Close()

	batches := prim.Stats().WAL.Batches
	list := parseList(t,
		"UPDATE t SET n = 8 WHERE id = 2",
		"INSERT INTO t (id, v, n) VALUES (4, 'a', 10)",
		"CREATE UNIQUE INDEX t_n ON t (n) USING HASH",
		"CREATE INDEX t_v ON t (v)")
	if _, err := prim.ExecAutonomousListWithMeta(list, []byte("meta-1")); err != nil {
		t.Fatal(err)
	}
	if n := prim.Stats().WAL.Batches - batches; n != 1 {
		t.Fatalf("the list appended %d WAL batches, want 1", n)
	}
	if got := prim.Table("t").Indexes(); len(got) != 4 { // rid's, n's, v's hash and ordered
		t.Fatalf("indexes after the list: %+v", got)
	}
	if _, err := prim.ExecSQL("INSERT INTO t (id, v, n) VALUES (5, 'e', 8)"); err == nil {
		t.Fatal("the UNIQUE index the list built does not hold")
	}
	want := prim.StateDigest()

	fol, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()
	replayInto(t, fol, collectFrames(t, tap, prim.Seq()))
	if got := fol.StateDigest(); got != want {
		t.Fatalf("follower digest %s, primary %s", got, want)
	}

	if err := prim.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if got := reopened.StateDigest(); got != want {
		t.Fatalf("reopened digest %s, before the close %s", got, want)
	}
	if string(reopened.Meta()) != "meta-1" {
		t.Fatalf("recovered meta %q", reopened.Meta())
	}
}

// TestListDDLRefusedWhenStaged: DDL a list cannot apply is refused when it
// stages, and the list then commits nothing: a UNIQUE index over duplicates
// the list's own write makes, a DROP of a table an open transaction wrote,
// and DDL naming a table another DDL statement of the list creates.
func TestListDDLRefusedWhenStaged(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (id INT PRIMARY KEY, n INT)")
	mustExec(t, db, "INSERT INTO t (id, n) VALUES (1, 1), (2, 2)")
	writer := db.NewSession()
	defer writer.Close()
	if _, err := writer.ExecSQL("BEGIN"); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE u (id INT PRIMARY KEY)")
	if _, err := writer.ExecSQL("INSERT INTO u (id) VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	want := db.StateDigest()
	for _, c := range []struct {
		list []string
		err  string
	}{
		{[]string{"UPDATE t SET n = 1 WHERE id = 2", "CREATE UNIQUE INDEX t_n ON t (n)"}, "duplicate value for unique index"},
		{[]string{"DELETE FROM t WHERE id = 1", "DROP TABLE u"}, "cannot drop u: written by an open transaction"},
		{[]string{"CREATE TABLE v (id INT PRIMARY KEY, w INT)", "CREATE INDEX v_w ON v (w)"}, "created or dropped by another DDL statement"},
		{[]string{"DROP TABLE t", "CREATE INDEX t_n ON t (n)"}, "created or dropped by another DDL statement"},
		{[]string{"CREATE INDEX t_n ON t (n) USING SPLAY"}, "unknown index type"},
		{[]string{"SELECT id FROM t"}, "cannot be staged"},
	} {
		_, err := db.ExecAutonomousListWithMeta(parseList(t, c.list...), []byte("refused"))
		if err == nil || !strings.Contains(err.Error(), c.err) {
			t.Errorf("%q: err = %v, want one containing %q", c.list, err, c.err)
		}
		if got := db.StateDigest(); got != want {
			t.Errorf("%q: a refused list changed the state", c.list)
		}
	}
	_, err := db.ExecAutonomousListWithMeta(parseList(t, "UPDATE t SET n = 1 WHERE id = 2", "CREATE UNIQUE INDEX t_n ON t (n)"), nil)
	if !errors.Is(err, ErrUniqueDuplicate) {
		t.Fatalf("unique over the list's own duplicates: err = %v, want ErrUniqueDuplicate", err)
	}
	// The same DDL from a client inside a transaction runs at once and
	// survives its ROLLBACK.
	if _, err := writer.ExecSQL("CREATE TABLE v (id INT PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	if _, err := writer.ExecSQL("ROLLBACK"); err != nil {
		t.Fatal(err)
	}
	if db.Table("v") == nil {
		t.Fatal("a client's CREATE TABLE inside a transaction did not survive its ROLLBACK")
	}
	mustExec(t, db, "DROP TABLE u")
}
