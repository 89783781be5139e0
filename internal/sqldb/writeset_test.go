package sqldb

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// The write path: a transaction's writes live in its write set until
// COMMIT, and its statements read the tables through that write set in
// place (access.iterate). An autocommit write is a one-statement
// transaction staged and applied under the write lock.

// writeSetSchema is the schema the write-set tests run on: each table has
// a unique hash index (its primary key) and an ordered index.
var writeSetSchema = []string{
	"CREATE TABLE a (id INT PRIMARY KEY, k INT, g INT, v INT)",
	"CREATE INDEX a_k ON a (k) USING BTREE",
	"CREATE TABLE b (id INT PRIMARY KEY, aid INT, w INT)",
	"CREATE INDEX b_w ON b (w) USING BTREE",
	"INSERT INTO a (id, k, g, v) VALUES (0, 0, 0, 0), (1, 1, 1, 10), (2, 2, 2, 20), (3, 3, 0, 30), (4, 4, 1, 40), (5, 0, 2, 50), (6, 1, 0, 60), (7, 2, 1, 70), (8, 3, 2, 80), (9, 4, 0, 90)",
	"INSERT INTO b (id, aid, w) VALUES (0, 0, 0), (1, 2, 1), (2, 4, 2), (3, 6, 3), (4, 8, 0), (5, 3, 1)",
}

// writeSetBattery is the fixed SELECT battery run after every statement:
// pk points, ordered-index ranges, ORDER BY ... LIMIT, MIN/MAX, joins,
// GROUP BY and COUNT(*). ordered marks the queries whose ORDER BY fixes
// the row order; the others compare as multisets.
var writeSetBattery = []struct {
	sql     string
	ordered bool
}{
	{"SELECT * FROM a WHERE id = 3", false},
	{"SELECT * FROM a WHERE id = 12", false},
	{"SELECT * FROM b WHERE id = 2", false},
	{"SELECT id, k FROM a WHERE k BETWEEN 2 AND 4", false},
	{"SELECT id FROM a WHERE k > 5", false},
	{"SELECT id, aid FROM b WHERE w = 2", false},
	{"SELECT k FROM a ORDER BY k LIMIT 4", true},
	{"SELECT k FROM a ORDER BY k DESC LIMIT 3", true},
	{"SELECT w FROM b WHERE w >= 1 ORDER BY w LIMIT 2", true},
	{"SELECT MIN(k), MAX(k) FROM a", true},
	{"SELECT MIN(w), MAX(w), COUNT(*) FROM b", true},
	{"SELECT a.id, b.id FROM a JOIN b ON a.id = b.aid", false},
	{"SELECT b.id, a.k FROM b JOIN a ON b.aid = a.id WHERE a.k >= 2", false},
	{"SELECT b.id, a.k, a.v FROM b JOIN a ON b.aid = a.id", false},
	{"SELECT g, COUNT(*), SUM(v) FROM a GROUP BY g", false},
	{"SELECT COUNT(*) FROM a", true},
	{"SELECT * FROM a ORDER BY id", true},
	{"SELECT * FROM b ORDER BY id", true},
}

// writeSetStatement decodes one write statement from four bytes. Primary
// keys are never updated, so a statement fails in the transaction exactly
// when it fails autocommitted (UNIQUE conflicts of an UPDATE surface only
// at COMMIT inside a transaction).
func writeSetStatement(op, x, y, z byte) string {
	switch op % 10 {
	case 0:
		return fmt.Sprintf("INSERT INTO a (id, k, g, v) VALUES (%d, %d, %d, %d)", x%16, y%8, z%3, x)
	case 1:
		return fmt.Sprintf("INSERT INTO a (id, k, g, v) VALUES (%d, %d, 0, 1), (%d, %d, 1, 2)", x%16, y%8, y%16, z%8)
	case 2:
		return fmt.Sprintf("UPDATE a SET k = %d WHERE id = %d", y%8, x%16)
	case 3:
		return fmt.Sprintf("UPDATE a SET v = v + 1, k = k + %d WHERE k BETWEEN %d AND %d", y%3, x%8, x%8+z%3)
	case 4:
		return fmt.Sprintf("DELETE FROM a WHERE id = %d", x%16)
	case 5:
		return fmt.Sprintf("DELETE FROM a WHERE k BETWEEN %d AND %d", x%8, x%8+z%2)
	case 6:
		return fmt.Sprintf("INSERT INTO b (id, aid, w) VALUES (%d, %d, %d)", x%12, y%16, z%6)
	case 7:
		return fmt.Sprintf("UPDATE b SET w = %d, aid = %d WHERE id = %d", z%6, y%16, x%12)
	case 8:
		return fmt.Sprintf("DELETE FROM b WHERE w = %d", x%6)
	default:
		return fmt.Sprintf("UPDATE a SET g = %d, v = v * 2 WHERE g = %d", z%3, x%3)
	}
}

// FuzzTxnWriteSet runs a decoded sequence of INSERT/UPDATE/DELETE
// statements in one transaction on one database and as autocommits on a
// twin. After every statement the SELECT battery must agree three ways:
// the transaction's view, the twin, and the reference interpreter over the
// twin. After COMMIT the two databases must hold the same rows. (Their
// StateDigests may differ: the digest records row slots, and COMMIT applies
// a transaction's deletes before its inserts, so the free list hands out
// slots in a different order than statement-by-statement execution does.)
func FuzzTxnWriteSet(f *testing.F) {
	f.Add([]byte{2, 3, 5, 0, 3, 1, 1, 2, 7, 2, 9, 3})       // indexed-column updates
	f.Add([]byte{0, 12, 1, 1, 2, 12, 6, 0, 4, 12, 0, 0})    // delete of the transaction's own insert
	f.Add([]byte{4, 1, 0, 0, 0, 1, 2, 2, 6, 1, 1, 1, 8, 1}) // unique-key delete, then re-insert
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4*24 {
			data = data[:4*24]
		}
		db, twin := New(), New()
		for _, sql := range writeSetSchema {
			mustExec(t, db, sql)
			mustExec(t, twin, sql)
		}
		sess := db.NewSession()
		defer sess.Close()
		if _, err := sess.ExecSQL("BEGIN"); err != nil {
			t.Fatal(err)
		}
		battery := func(when string, read func(string) (*Result, error)) {
			t.Helper()
			for _, q := range writeSetBattery {
				got, errG := read(q.sql)
				want, errW := twin.ExecSQL(q.sql)
				ref, errR := interpretSQL(t, twin, q.sql)
				if errG != nil || errW != nil || errR != nil {
					t.Fatalf("%s: %q: txn err=%v, twin err=%v, interpreter err=%v", when, q.sql, errG, errW, errR)
				}
				sameRows(t, when+": txn vs twin", q.sql, got, want, q.ordered)
				sameRows(t, when+": twin vs interpreter", q.sql, want, ref, q.ordered)
			}
		}
		for i := 0; i+4 <= len(data); i += 4 {
			sql := writeSetStatement(data[i], data[i+1], data[i+2], data[i+3])
			got, errG := sess.ExecSQL(sql)
			want, errW := twin.ExecSQL(sql)
			if (errG == nil) != (errW == nil) {
				t.Fatalf("%q: txn err=%v, autocommit err=%v", sql, errG, errW)
			}
			if errG == nil && got.Affected != want.Affected {
				t.Fatalf("%q: txn affected %d rows, autocommit %d", sql, got.Affected, want.Affected)
			}
			battery("after "+sql, func(q string) (*Result, error) { return sess.ExecSQL(q) })
		}
		if _, err := sess.ExecSQL("COMMIT"); err != nil {
			t.Fatalf("COMMIT: %v", err)
		}
		battery("after COMMIT", func(q string) (*Result, error) { return db.ExecSQL(q) })
		if got, want := dump(t, db), dump(t, twin); got != want {
			t.Fatalf("committed rows differ from the twin's:\n%s\nwant:\n%s", got, want)
		}
	})
}

// TestTxnReadsSeeOtherCommits pins the read view: a transaction reads the
// committed tables as they are at each statement, overlaid with its own
// write set. Rows outside its write set show commits other sessions made
// after BEGIN; there is no snapshot taken at BEGIN.
func TestTxnReadsSeeOtherCommits(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	mustExec(t, db, "INSERT INTO t (id, v) VALUES (1, 10), (2, 20)")
	sess := db.NewSession()
	defer sess.Close()
	for _, sql := range []string{"BEGIN", "UPDATE t SET v = 11 WHERE id = 1"} {
		if _, err := sess.ExecSQL(sql); err != nil {
			t.Fatal(err)
		}
	}
	mustExec(t, db, "UPDATE t SET v = 21 WHERE id = 2")
	mustExec(t, db, "INSERT INTO t (id, v) VALUES (3, 30)")
	res, err := sess.ExecSQL("SELECT id, v FROM t ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	want := Result{Rows: [][]Value{{Int(1), Int(11)}, {Int(2), Int(21)}, {Int(3), Int(30)}}}
	sameRows(t, "in transaction", "SELECT id, v FROM t ORDER BY id", res, &want, true)
	if _, err := sess.ExecSQL("ROLLBACK"); err != nil {
		t.Fatal(err)
	}
	want.Rows[0][1] = Int(10)
	sameRows(t, "after ROLLBACK", "SELECT id, v FROM t ORDER BY id", mustExec(t, db, "SELECT id, v FROM t ORDER BY id"), &want, true)
}

// TestWriteSetPageFault drives the two places a write can meet a page it
// cannot read back: an autocommit UPDATE whose staging faults must apply
// nothing, and a COMMIT that faults midway through applying must commit the
// redo of what it applied. Both return *PageFaultError, and a reopen must
// reproduce the in-memory state, which shows the WAL tracked memory.
func TestWriteSetPageFault(t *testing.T) {
	dir := t.TempDir()
	opts := DurabilityOptions{NoFsync: true, Paged: true, CacheBytes: 1 << 20, CheckpointBytes: -1}
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Table a sorts before b, so COMMIT applies a's write before faulting
	// on b's. b spans three pages.
	mustExec(t, db, "CREATE TABLE a (id INT PRIMARY KEY, v INT)")
	mustExec(t, db, "CREATE TABLE b (id INT PRIMARY KEY, v INT)")
	mustExec(t, db, "INSERT INTO a (id, v) VALUES (1, 10), (2, 20)")
	for base := 0; base < 3*pageSlots; base += 100 {
		sql := "INSERT INTO b (id, v) VALUES "
		for i := base; i < base+100; i++ {
			if i > base {
				sql += ", "
			}
			sql += fmt.Sprintf("(%d, %d)", i, i)
		}
		mustExec(t, db, sql)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	sess := db.NewSession()
	defer sess.Close()
	for _, sql := range []string{
		"BEGIN",
		"UPDATE a SET v = 11 WHERE id = 1",
		fmt.Sprintf("DELETE FROM b WHERE id = %d", pageSlots+10),
		fmt.Sprintf("UPDATE b SET v = -7 WHERE id = %d", 2*pageSlots+10),
	} {
		if _, err := sess.ExecSQL(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	// Dirty a's page and b's first page, so they stay resident, then evict
	// every clean page and take the segment files away.
	mustExec(t, db, "UPDATE a SET v = 21 WHERE id = 2")
	mustExec(t, db, "UPDATE b SET v = -1 WHERE id = 0")
	const readB = "SELECT * FROM b ORDER BY id"
	wantB := mustExec(t, db, readB)
	db.mu.Lock()
	budget := db.pager.budget
	db.pager.budget = 1
	db.pager.evictToBudget()
	db.pager.budget = budget
	db.mu.Unlock()
	pages, aside := filepath.Join(dir, pagesDirName), filepath.Join(t.TempDir(), "pages")
	if err := os.Rename(pages, aside); err != nil {
		t.Fatal(err)
	}

	var pf *PageFaultError
	if _, err := db.ExecSQL("UPDATE b SET v = v + 1 WHERE v >= -1"); !errors.As(err, &pf) {
		t.Fatalf("autocommit UPDATE over an unreadable page: err = %v, want a *PageFaultError", err)
	}
	if _, err := sess.ExecSQL("COMMIT"); !errors.As(err, &pf) {
		t.Fatalf("COMMIT over an unreadable page: err = %v, want a *PageFaultError", err)
	}
	if sess.InTxn() {
		t.Fatal("the faulted COMMIT left its transaction open")
	}

	if err := os.Rename(aside, pages); err != nil {
		t.Fatal(err)
	}
	// The faulted UPDATE applied nothing; the faulted COMMIT applied a's
	// write and none of b's.
	sameRows(t, "after the faults", readB, mustExec(t, db, readB), wantB, true)
	if res := mustExec(t, db, "SELECT v FROM a WHERE id = 1"); res.Rows[0][0].I != 11 {
		t.Fatalf("a's write before the fault was not applied: %v", res.Rows)
	}
	want := db.StateDigest()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if got := db.StateDigest(); got != want {
		t.Fatal("reopened state differs from the in-memory state before close")
	}
}

// TestTxnWriteSetIndexCreatedMidTxn covers an index created by another
// session after a transaction has staged an update of that column: a read
// planned over the new index must still find the moved row.
func TestTxnWriteSetIndexCreatedMidTxn(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (id INT PRIMARY KEY, x INT)")
	mustExec(t, db, "INSERT INTO t (id, x) VALUES (1, 1), (2, 2), (3, 3)")
	sess := db.NewSession()
	defer sess.Close()
	for _, sql := range []string{"BEGIN", "UPDATE t SET x = 5 WHERE id = 1"} {
		if _, err := sess.ExecSQL(sql); err != nil {
			t.Fatal(err)
		}
	}
	mustExec(t, db, "CREATE INDEX t_x ON t (x)")
	for _, q := range []string{"SELECT id FROM t WHERE x = 5", "SELECT id FROM t WHERE x > 4"} {
		res, err := sess.ExecSQL(q)
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, "after CREATE INDEX", q, res, &Result{Rows: [][]Value{{Int(1)}}}, true)
	}
}
