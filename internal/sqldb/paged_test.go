package sqldb

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/sqlparser"
)

// pagedTestOpts returns durability options that force the buffer cache to
// thrash: the budget is a handful of pages, so any workload touching more
// rows than that evicts and faults constantly.
func pagedTestOpts(cacheBytes int64) DurabilityOptions {
	return DurabilityOptions{Paged: true, CacheBytes: cacheBytes, CheckpointBytes: -1}
}

// TestPagedRecoveryBasics is TestDurableRecoveryBasics for the paged
// layout: the whole redo surface plus an incremental checkpoint in the
// middle, crashed and recovered from MANIFEST + segments + WAL tail.
func TestPagedRecoveryBasics(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, pagedTestOpts(32<<10))
	if err != nil {
		t.Fatal(err)
	}
	if !db.Paged() {
		t.Fatal("Paged:true did not produce a paged database")
	}
	mustExec(t, db, "CREATE TABLE t (id INT PRIMARY KEY, name TEXT, score INT)")
	mustExec(t, db, "CREATE INDEX t_score ON t (score)")
	mustExec(t, db, "INSERT INTO t (id, name, score) VALUES (1, 'alice', 10), (2, 'bob', 20), (3, 'carol', 30)")
	mustExec(t, db, "UPDATE t SET score = 25 WHERE id = 2")
	mustExec(t, db, "DELETE FROM t WHERE id = 1")

	// Checkpoint mid-history so recovery exercises manifest + WAL replay,
	// not just one of them.
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, manifestName)); err != nil {
		t.Fatalf("checkpoint left no MANIFEST: %v", err)
	}

	mustExec(t, db, "BEGIN")
	mustExec(t, db, "INSERT INTO t (id, name, score) VALUES (4, 'dave', 40)")
	mustExec(t, db, "COMMIT")
	mustExec(t, db, "BEGIN")
	mustExec(t, db, "INSERT INTO t (id, name, score) VALUES (5, 'eve', 50)")
	mustExec(t, db, "DELETE FROM t WHERE id = 4")
	mustExec(t, db, "ROLLBACK")
	mustExec(t, db, "CREATE TABLE gone (x INT)")
	mustExec(t, db, "DROP TABLE gone")

	want := dump(t, db)
	db.Close()

	// Reopen WITHOUT the Paged flag: the manifest must win layout
	// detection on its own.
	db2, err := Open(dir, DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if !db2.Paged() {
		t.Fatal("manifest layout not auto-detected on reopen")
	}
	if got := dump(t, db2); got != want {
		t.Fatalf("recovered state differs:\ngot:\n%s\nwant:\n%s", got, want)
	}
	res := mustExec(t, db2, "SELECT name FROM t WHERE score > 20 ORDER BY score")
	if len(res.Rows) != 3 {
		t.Fatalf("range after recovery: got %d rows, want 3", len(res.Rows))
	}
	if _, err := db2.ExecSQL("INSERT INTO t (id, name, score) VALUES (2, 'dup', 0)"); err == nil {
		t.Fatal("recovered PRIMARY KEY index did not reject a duplicate")
	}
}

// TestPagedChurnProperty drives the same random insert/update/delete/
// range-scan/transaction mix against a paged database with a cache budget
// smaller than one page (so every statement faults and evicts) and a
// resident durable oracle, crashing both at random points and requiring
// row-by-row and StateDigest equality throughout.
//
// Digest equality across a crash needs both sides to rebuild from the same
// checkpoint sequence point (slot/free-list reconstruction depends on it),
// so the oracle checkpoints whenever the paged side does — including the
// synchronous checkpoints cache pressure forces.
func TestPagedChurnProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	dirP, dirO := t.TempDir(), t.TempDir()
	paged, err := Open(dirP, pagedTestOpts(24<<10))
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := Open(dirO, DurabilityOptions{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}

	var seenCkpts int64
	syncCkpt := func() {
		t.Helper()
		if n := paged.WALStats().Checkpoints; n > seenCkpts {
			if err := oracle.Checkpoint(); err != nil {
				t.Fatalf("oracle lockstep checkpoint: %v", err)
			}
			seenCkpts = n
		}
	}
	both := func(sql string) {
		t.Helper()
		_, errP := paged.ExecSQL(sql)
		_, errO := oracle.ExecSQL(sql)
		if (errP == nil) != (errO == nil) {
			t.Fatalf("divergence on %q: paged=%v oracle=%v", sql, errP, errO)
		}
		syncCkpt()
	}
	compareRange := func(lo, hi int) {
		t.Helper()
		q := fmt.Sprintf("SELECT id, name FROM kv WHERE id > %d AND id < %d ORDER BY id", lo, hi)
		rp, errP := paged.ExecSQL(q)
		ro, errO := oracle.ExecSQL(q)
		if errP != nil || errO != nil {
			t.Fatalf("range scan: paged=%v oracle=%v", errP, errO)
		}
		if len(rp.Rows) != len(ro.Rows) {
			t.Fatalf("range scan rows: paged=%d oracle=%d", len(rp.Rows), len(ro.Rows))
		}
		for i := range rp.Rows {
			for j := range rp.Rows[i] {
				if rp.Rows[i][j].Key() != ro.Rows[i][j].Key() {
					t.Fatalf("range scan row %d col %d: %s vs %s", i, j, rp.Rows[i][j].Key(), ro.Rows[i][j].Key())
				}
			}
		}
	}

	both("CREATE TABLE kv (id INT PRIMARY KEY, name TEXT, n INT)")
	both("CREATE INDEX kv_id ON kv (id)")

	pad := strings.Repeat("x", 60)
	// Bulk-load enough rows that the live pages dwarf both the cache budget
	// and the pinned L1 tier — churn below must fault and evict constantly.
	const idSpace = 3000
	for base := 0; base < idSpace; base += 100 {
		var sb strings.Builder
		sb.WriteString("INSERT INTO kv (id, name, n) VALUES ")
		for i := 0; i < 100; i++ {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, 'v%d-%s', %d)", base+i, base+i, pad, base+i)
		}
		both(sb.String())
	}

	const steps = 500
	for step := 0; step < steps; step++ {
		id := rng.Intn(idSpace)
		switch r := rng.Intn(100); {
		case r < 40:
			both(fmt.Sprintf("INSERT INTO kv (id, name, n) VALUES (%d, 'v%d-%s', %d)", id, id, pad, step))
		case r < 60:
			both(fmt.Sprintf("UPDATE kv SET name = 'u%d-%s', n = %d WHERE id = %d", step, pad, step, id))
		case r < 72:
			both(fmt.Sprintf("DELETE FROM kv WHERE id = %d", id))
		case r < 82:
			lo := rng.Intn(idSpace - 200)
			compareRange(lo, lo+rng.Intn(150)+1)
		case r < 92:
			both("BEGIN")
			both(fmt.Sprintf("INSERT INTO kv (id, name, n) VALUES (%d, 'tx%d', %d)", rng.Intn(idSpace), step, step))
			both(fmt.Sprintf("UPDATE kv SET n = %d WHERE id = %d", -step, id))
			if rng.Intn(2) == 0 {
				both("COMMIT")
			} else {
				both("ROLLBACK")
			}
		default:
			if err := paged.Checkpoint(); err != nil {
				t.Fatalf("paged checkpoint: %v", err)
			}
			syncCkpt()
		}

		if step%7 == 0 {
			if dp, do := paged.StateDigest(), oracle.StateDigest(); dp != do {
				t.Fatalf("digest diverged at step %d:\npaged:\n%s\noracle:\n%s", step, dump(t, paged), dump(t, oracle))
			}
		}
		if step%60 == 23 {
			// Crash both in lockstep and recover: the paged side from
			// MANIFEST + segments + WAL, the oracle from snapshot + WAL.
			paged.Close()
			oracle.Close()
			if paged, err = Open(dirP, pagedTestOpts(24<<10)); err != nil {
				t.Fatalf("paged reopen at step %d: %v", step, err)
			}
			if oracle, err = Open(dirO, DurabilityOptions{CheckpointBytes: -1}); err != nil {
				t.Fatalf("oracle reopen at step %d: %v", step, err)
			}
			seenCkpts = 0 // in-memory counter resets with the process
			if gp, gz := dump(t, paged), dump(t, oracle); gp != gz {
				t.Fatalf("recovered state diverged at step %d:\npaged:\n%s\noracle:\n%s", step, gp, gz)
			}
			if dp, do := paged.StateDigest(), oracle.StateDigest(); dp != do {
				t.Fatalf("recovered digest diverged at step %d", step)
			}
		}
	}

	if dp, do := paged.StateDigest(), oracle.StateDigest(); dp != do {
		t.Fatalf("final digest diverged")
	}
	cs := paged.CacheStats()
	if cs.Misses == 0 || cs.Evictions == 0 {
		t.Fatalf("cache never thrashed (misses=%d evictions=%d): budget too generous for the test to mean anything", cs.Misses, cs.Evictions)
	}
	paged.Close()
	oracle.Close()
}

// TestPagedCacheBounded loads a dataset at least 4x the cache budget and
// checks that resident bytes stay near the budget while every row remains
// reachable — the beyond-RAM claim in miniature.
func TestPagedCacheBounded(t *testing.T) {
	const budget = 128 << 10
	dir := t.TempDir()
	db, err := Open(dir, pagedTestOpts(budget))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	mustExec(t, db, "CREATE TABLE big (id INT PRIMARY KEY, pad TEXT)")
	pad := strings.Repeat("y", 64)
	const rows = 8192 // ~ 8192*(8+64+overhead) bytes of row data >> 4*budget
	for base := 0; base < rows; base += 64 {
		var sb strings.Builder
		sb.WriteString("INSERT INTO big (id, pad) VALUES ")
		for i := 0; i < 64; i++ {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, 'r%d-%s')", base+i, base+i, pad)
		}
		mustExec(t, db, sb.String())
		if cs := db.CacheStats(); cs.ResidentBytes > budget+budget/2 {
			t.Fatalf("resident %d exceeds budget %d + slack during load", cs.ResidentBytes, budget)
		}
	}
	if got := db.SizeBytes(); int64(got) < 4*budget {
		t.Fatalf("dataset too small to prove anything: %d < 4*%d", got, budget)
	}

	// Random point reads across the whole key space: far more pages than
	// the cache holds, so this faults and evicts continuously.
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 400; i++ {
		id := rng.Intn(rows)
		res := mustExec(t, db, fmt.Sprintf("SELECT pad FROM big WHERE id = %d", id))
		if len(res.Rows) != 1 || !strings.HasPrefix(res.Rows[0][0].S, fmt.Sprintf("r%d-", id)) {
			t.Fatalf("point read %d: %+v", id, res.Rows)
		}
		if cs := db.CacheStats(); cs.ResidentBytes > budget+budget/2 {
			t.Fatalf("resident %d exceeds budget %d + slack during reads", cs.ResidentBytes, budget)
		}
	}
	// A full scan must still see every row even though only a fraction is
	// resident at any instant.
	res := mustExec(t, db, "SELECT id FROM big")
	if len(res.Rows) != rows {
		t.Fatalf("full scan: got %d rows, want %d", len(res.Rows), rows)
	}
	cs := db.CacheStats()
	if cs.Misses == 0 || cs.Evictions == 0 || cs.Hits == 0 {
		t.Fatalf("cache counters implausible: %+v", cs)
	}
	if cs.BudgetBytes != budget {
		t.Fatalf("budget reported %d, want %d", cs.BudgetBytes, budget)
	}
	if db.DiskSizeBytes() <= 0 {
		t.Fatal("DiskSizeBytes reported nothing on a checkpointed paged database")
	}
}

// TestPagedIncrementalCheckpointBytes checks the incremental claim
// structurally: after a bulk load is checkpointed, dirtying one row makes
// the next checkpoint write roughly one page, not the whole table.
func TestPagedIncrementalCheckpointBytes(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, pagedTestOpts(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, "CREATE TABLE t (id INT PRIMARY KEY, pad TEXT)")
	pad := strings.Repeat("z", 64)
	for base := 0; base < 4096; base += 64 {
		var sb strings.Builder
		sb.WriteString("INSERT INTO t (id, pad) VALUES ")
		for i := 0; i < 64; i++ {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, '%s')", base+i, pad)
		}
		mustExec(t, db, sb.String())
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	full := db.LastCheckpointBytes()
	if full <= 0 {
		t.Fatalf("bulk checkpoint wrote %d bytes", full)
	}

	mustExec(t, db, "UPDATE t SET pad = 'tiny' WHERE id = 17")
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	incr := db.LastCheckpointBytes()
	if incr <= 0 || incr >= full/4 {
		t.Fatalf("one-row churn checkpoint wrote %d bytes vs %d for the bulk load: not incremental", incr, full)
	}
	if db.CheckpointPauseNanos() <= 0 {
		t.Fatal("checkpoint pause counter never advanced")
	}
}

// snapshotDirDigest is the StateDigest of testdata/snapshot_datadir, a
// directory in the snapshot.db layout (snapshot plus a WAL tail of inserts,
// updates, deletes, DDL and a meta blob; hash and ordered indexes; interior
// free-list gaps) written by the last version that wrote that layout, and
// recorded by that version after replaying it. snapshotDirTailDigest is the
// digest that version recorded after checkpointing, reopening and running
// snapshotDirTail: it pins the recovered free list, which no digest sees.
const (
	snapshotDirDigest     = "80e9b038dda25e671cefe29ed62aab67584e99b50d8809acd3458fa2d0b4ece9"
	snapshotDirTailDigest = "1ed99fd040aaf719c34097cd47dcfe5689980c1b2409dcb22a1afcae1e334714"
)

// snapshotDirTail inserts more rows than the fixture has free slots.
func snapshotDirTail(t *testing.T, db *DB) {
	t.Helper()
	for i := 0; i < 7; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO users (id, name, score, avatar) VALUES (%d, 'tail%d', %d, NULL)", 5000+i, i, i*3))
	}
}

// copySnapshotDir copies testdata/snapshot_datadir into a fresh directory.
func copySnapshotDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for _, name := range []string{snapFileName, walFileName} {
		data, err := os.ReadFile(filepath.Join("testdata", "snapshot_datadir", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// assertConverted checks that a directory holds the manifest layout only.
func assertConverted(t *testing.T, dir string) {
	t.Helper()
	if _, err := os.Stat(filepath.Join(dir, manifestName)); err != nil {
		t.Fatalf("conversion left no MANIFEST: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, snapFileName)); !os.IsNotExist(err) {
		t.Fatalf("conversion left snapshot.db behind: %v", err)
	}
}

// TestPagedLayoutConversion opens the snapshot-layout fixture with a cache
// budget far below its size and expects an in-place conversion: MANIFEST +
// segments appear, snapshot.db disappears, and the data survives both the
// conversion and a subsequent flag-less reopen.
func TestPagedLayoutConversion(t *testing.T) {
	dir := copySnapshotDir(t)
	db2, err := Open(dir, pagedTestOpts(32<<10))
	if err != nil {
		t.Fatalf("conversion open: %v", err)
	}
	if !db2.Paged() {
		t.Fatal("conversion did not produce a paged database")
	}
	assertConverted(t, dir)
	if got := db2.StateDigest(); got != snapshotDirDigest {
		t.Fatalf("conversion changed the state: digest %s", got)
	}
	mustExec(t, db2, "INSERT INTO later (k, v) VALUES ('d', 4)")
	want2 := dump(t, db2)
	db2.Close()

	db3, err := Open(dir, DurabilityOptions{}) // no flag: auto-detect
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	if !db3.Paged() {
		t.Fatal("converted directory not auto-detected as paged")
	}
	if got := dump(t, db3); got != want2 {
		t.Fatalf("post-conversion reopen lost data:\ngot:\n%s\nwant:\n%s", got, want2)
	}
}

// TestRecoverySnapshotLayoutParentDir opens the snapshot-layout fixture the
// default way (no cache budget): the state must replay to the digest the
// writing version recorded, the directory must come out in the manifest
// layout, and a reopen — now from the manifest — must agree, down to the
// free list the next inserts draw from.
func TestRecoverySnapshotLayoutParentDir(t *testing.T) {
	dir := copySnapshotDir(t)
	db, err := Open(dir, DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := db.StateDigest(); got != snapshotDirDigest {
		t.Fatalf("snapshot-layout recovery: digest %s, want %s", got, snapshotDirDigest)
	}
	if string(db.Meta()) != "meta-in-tail" {
		t.Fatalf("meta blob %q", db.Meta())
	}
	assertConverted(t, dir)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db, err = Open(dir, DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if got := db.StateDigest(); got != snapshotDirDigest {
		t.Fatalf("reopen from the manifest: digest %s, want %s", got, snapshotDirDigest)
	}
	if cs := db.CacheStats(); cs.Misses != 0 {
		t.Fatalf("an unbounded cache faulted after reopen: %+v", cs)
	}
	snapshotDirTail(t, db)
	if got := db.StateDigest(); got != snapshotDirTailDigest {
		t.Fatalf("inserts after reopen landed in other slots: digest %s, want %s", got, snapshotDirTailDigest)
	}
}

// TestOpenNeverWritesSnapshot runs a database through load, checkpoint,
// close and reopen and checks that no snapshot.db ever appears: a durable
// directory is MANIFEST + pages/ whatever the cache budget.
func TestOpenNeverWritesSnapshot(t *testing.T) {
	for _, opts := range []DurabilityOptions{{}, pagedTestOpts(16 << 10)} {
		dir := t.TempDir()
		db, err := Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		mustExec(t, db, "CREATE TABLE t (id INT PRIMARY KEY, pad TEXT)")
		for i := 0; i < 600; i++ {
			mustExec(t, db, fmt.Sprintf("INSERT INTO t (id, pad) VALUES (%d, '%s')", i, strings.Repeat("p", 40)))
		}
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		mustExec(t, db, "DELETE FROM t WHERE id < 100")
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		assertConverted(t, dir)
		if db, err = Open(dir, opts); err != nil {
			t.Fatal(err)
		}
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		assertConverted(t, dir)
		if ents, err := os.ReadDir(filepath.Join(dir, pagesDirName)); err != nil || len(ents) == 0 {
			t.Fatalf("no page segments after a checkpoint of 500 rows: %v %v", ents, err)
		}
	}
}

// TestScratchTablesStayOutOfCache runs SelectFeeds, which builds a
// column-naming table per feed for one statement only, and transactional
// SELECTs over a written table, which read the write set in place and must
// build nothing. It checks the database's cache still holds exactly the
// stored tables' pages: no resident page and no clock-ring entry per
// statement.
func TestScratchTablesStayOutOfCache(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE a (id INT PRIMARY KEY, v INT)")
	mustExec(t, db, "CREATE TABLE b (id INT PRIMARY KEY, w TEXT)")
	for i := 0; i < 700; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO a (id, v) VALUES (%d, %d)", i, i%13))
	}
	mustExec(t, db, "INSERT INTO b (id, w) VALUES (1, 'x'), (2, 'y')")
	stored := func() int64 {
		n := 0
		for _, name := range db.TableNames() {
			n += len(db.Table(name).pages)
		}
		return int64(n)
	}
	check := func(when string) {
		t.Helper()
		db.pager.mu.Lock()
		ring := len(db.pager.ring)
		db.pager.mu.Unlock()
		want := stored()
		if cs := db.CacheStats(); cs.ResidentPages != want || int64(ring) != want {
			t.Fatalf("%s: %d resident pages, %d ring entries; the stored tables have %d pages", when, cs.ResidentPages, ring, want)
		}
	}
	check("after load")

	sess := db.NewSession()
	defer sess.Close()
	if _, err := sess.ExecSQL("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.ExecSQL("UPDATE a SET v = 99 WHERE id = 3"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		res, err := sess.ExecSQL("SELECT COUNT(*) FROM a WHERE v = 99")
		if err != nil {
			t.Fatal(err)
		}
		if res.Rows[0][0].I != 1 {
			t.Fatalf("transactional read missed its own write: %v", res.Rows)
		}
	}
	check("after 500 transactional SELECTs")
	if _, err := sess.ExecSQL("ROLLBACK"); err != nil {
		t.Fatal(err)
	}

	st := mustParse(t, "SELECT x.k, y.w FROM x JOIN y ON x.k = y.id")
	feeds := []Feed{
		{Columns: []string{"k"}, Rows: [][]Value{{Int(1)}, {Int(2)}, {Int(3)}}},
		{Columns: []string{"id", "w"}, Rows: [][]Value{{Int(1), Text("x")}, {Int(2), Text("y")}}},
	}
	for i := 0; i < 500; i++ {
		res, err := db.SelectFeeds(st.(*sqlparser.SelectStmt), feeds)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 2 {
			t.Fatalf("feed join: %v", res.Rows)
		}
	}
	check("after 500 SelectFeeds statements")

	mustExec(t, db, "DROP TABLE b")
	check("after DROP TABLE")
}

// TestBackgroundAutoCheckpoint verifies that auto-checkpoints run off the
// commit path: commits only kick a background goroutine, which must be
// observed to checkpoint on its own within the deadline.
func TestBackgroundAutoCheckpoint(t *testing.T) {
	for _, paged := range []bool{false, true} {
		t.Run(fmt.Sprintf("paged=%v", paged), func(t *testing.T) {
			dir := t.TempDir()
			db, err := Open(dir, DurabilityOptions{Paged: paged, CacheBytes: 1 << 20, CheckpointBytes: 2048})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			mustExec(t, db, "CREATE TABLE t (id INT PRIMARY KEY, pad TEXT)")
			pad := strings.Repeat("w", 128)
			deadline := time.Now().Add(10 * time.Second)
			ckpted := false
			for i := 0; i < 4096 && !ckpted; i++ {
				mustExec(t, db, fmt.Sprintf("INSERT INTO t (id, pad) VALUES (%d, '%s')", i, pad))
				if db.WALStats().Checkpoints > 0 {
					ckpted = true
				}
				if time.Now().After(deadline) {
					break
				}
			}
			// The kick is asynchronous; give the goroutine a moment even
			// after the writes stop.
			for !ckpted && time.Now().Before(deadline) {
				if db.WALStats().Checkpoints > 0 {
					ckpted = true
					break
				}
				time.Sleep(10 * time.Millisecond)
			}
			if !ckpted {
				t.Fatal("background checkpointer never ran despite the WAL passing its threshold")
			}
			if err := db.LastCheckpointError(); err != nil {
				t.Fatalf("background checkpoint failed: %v", err)
			}
			if db.LastCheckpointBytes() <= 0 {
				t.Fatal("LastCheckpointBytes not surfaced")
			}
			if db.CheckpointPauseNanos() <= 0 {
				t.Fatal("CheckpointPauseNanos not surfaced")
			}
		})
	}
}

// TestPagedFaultInstallRace has two readers fault the page of a
// checkpointed (clean, evictable) table over and over while a third
// goroutine sweeps the clock under a one-byte budget, so a page is evicted
// the moment it is installed. A reader that loses the install race must
// still come back holding a page: it used to return whatever the slot held
// after the sweep had emptied it again — nil — and rowAt dereferenced that.
// faultPage is called directly so the lost-install path is taken whenever
// the other reader's page is still there; every row read is checked against
// a resident database. The window is a few instructions wide: it needs the
// race detector's slowdown to be hit reliably, so run with -race.
func TestPagedFaultInstallRace(t *testing.T) {
	paged, err := Open(t.TempDir(), DurabilityOptions{NoFsync: true, Paged: true, CacheBytes: 1, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer paged.Close()
	resident := New()
	const rows = 8
	for _, db := range []*DB{paged, resident} {
		mustExec(t, db, "CREATE TABLE big (id INT PRIMARY KEY, v INT)")
		var sb strings.Builder
		sb.WriteString("INSERT INTO big (id, v) VALUES ")
		for i := 0; i < rows; i++ {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, %d)", i, 7*i)
		}
		mustExec(t, db, sb.String())
	}
	if err := paged.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	pt, rt := paged.Table("big"), resident.Table("big")

	done := make(chan struct{})
	var sweeper, readers sync.WaitGroup
	sweeper.Add(1)
	go func() {
		defer sweeper.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			paged.mu.RLock()
			paged.pager.evictToBudget()
			paged.mu.RUnlock()
		}
	}()
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 60000; i++ {
				paged.mu.RLock()
				p, err := pt.faultPage(0)
				paged.mu.RUnlock()
				if err != nil || p == nil {
					t.Errorf("fault %d: faultPage returned page %p, err %v", i, p, err)
					return
				}
				slot := i % rows
				want, err := rt.rowAt(slot)
				if err != nil {
					t.Errorf("fault %d: %v", i, err)
					return
				}
				got := p.rows[slot]
				if len(got) != 2 || got[0].I != want[0].I || got[1].I != want[1].I {
					t.Errorf("fault %d: slot %d = %v, want %v", i, slot, got, want)
					return
				}
			}
		}()
	}
	readers.Wait()
	close(done)
	sweeper.Wait()
	if cs := paged.CacheStats(); cs.Evictions == 0 {
		t.Fatalf("the sweep never evicted a page: %+v", cs)
	}
}
