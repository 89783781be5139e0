package sqldb

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/sqlparser"
)

// dump renders every table's live rows in a canonical order so two
// databases can be compared for exact equality.
func dump(t *testing.T, db *DB) string {
	t.Helper()
	var sb strings.Builder
	for _, name := range db.TableNames() {
		res, err := db.ExecSQL("SELECT * FROM " + name)
		if err != nil {
			t.Fatalf("dump %s: %v", name, err)
		}
		rows := make([]string, 0, len(res.Rows))
		for _, row := range res.Rows {
			parts := make([]string, len(row))
			for i, v := range row {
				parts[i] = v.Key() // type-tagged: distinguishes 1 from '1'
			}
			rows = append(rows, strings.Join(parts, "|"))
		}
		sort.Strings(rows)
		fmt.Fprintf(&sb, "%s(%d):\n%s\n", name, len(res.Rows), strings.Join(rows, "\n"))
	}
	return sb.String()
}

func mustParse(t *testing.T, sql string) sqlparser.Statement {
	t.Helper()
	st, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatalf("parse %s: %v", sql, err)
	}
	return st
}

func mustParseB(b *testing.B, sql string) sqlparser.Statement {
	b.Helper()
	st, err := sqlparser.Parse(sql)
	if err != nil {
		b.Fatalf("parse %s: %v", sql, err)
	}
	return st
}

// TestDurableRecoveryBasics covers the whole redo surface — DDL, inserts,
// updates, deletes, transactions (committed and rolled back) — by
// abandoning the database without Close (a crash) and reopening.
func TestDurableRecoveryBasics(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE t (id INT PRIMARY KEY, name TEXT, score INT)")
	mustExec(t, db, "CREATE INDEX t_score ON t (score)")
	mustExec(t, db, "INSERT INTO t (id, name, score) VALUES (1, 'alice', 10), (2, 'bob', 20), (3, 'carol', 30)")
	mustExec(t, db, "UPDATE t SET score = 25 WHERE id = 2")
	mustExec(t, db, "DELETE FROM t WHERE id = 1")

	// A committed transaction must survive; a rolled-back one must not.
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
	// "Crash": no Checkpoint ran; Close here only releases the directory
	// lock and fsyncs — the on-disk bytes are identical to a kill at this
	// point (true kill coverage: TestTornTailRecovery and the server's
	// SIGKILL e2e).
	db.Close()
	db2, err := Open(dir, DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := dump(t, db2); got != want {
		t.Fatalf("recovered state differs:\ngot:\n%s\nwant:\n%s", got, want)
	}
	// Indexes must be rebuilt: a range query should use the ordered index.
	res := mustExec(t, db2, "SELECT name FROM t WHERE score > 20 ORDER BY score")
	if len(res.Rows) != 3 {
		t.Fatalf("range after recovery: got %d rows, want 3", len(res.Rows))
	}
	if c := db2.Stats().Plan; c.RangeScans == 0 && c.OrderedScans == 0 {
		t.Fatalf("recovered ordered index unused: %+v", c)
	}
	// And the recovered database must remain writable with constraints.
	if _, err := db2.ExecSQL("INSERT INTO t (id, name, score) VALUES (2, 'dup', 0)"); err == nil {
		t.Fatal("recovered PRIMARY KEY index did not reject a duplicate")
	}
}

// TestCrashRecoveryProperty drives a random committed write sequence
// against a durable database and an in-memory oracle, crashing (reopening
// without Close) at random points and requiring the recovered state to
// equal the oracle's exactly.
func TestCrashRecoveryProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dir := t.TempDir()
	// Tiny checkpoint threshold so the property also exercises
	// snapshot+WAL recovery, not just pure WAL replay.
	opts := DurabilityOptions{CheckpointBytes: 2048}
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	oracle := New()

	both := func(sql string) {
		t.Helper()
		_, errD := db.ExecSQL(sql)
		_, errO := oracle.ExecSQL(sql)
		if (errD == nil) != (errO == nil) {
			t.Fatalf("%s: durable err=%v oracle err=%v", sql, errD, errO)
		}
	}

	both("CREATE TABLE kv (k INT PRIMARY KEY, v TEXT, n INT)")
	nextKey := 0
	for step := 0; step < 400; step++ {
		switch r := rng.Intn(100); {
		case r < 45: // insert (sometimes multi-row, sometimes duplicate key)
			k := nextKey
			if rng.Intn(8) == 0 && nextKey > 0 {
				k = rng.Intn(nextKey) // duplicate: the statement must be a no-op
			} else {
				nextKey += 2
			}
			both(fmt.Sprintf("INSERT INTO kv (k, v, n) VALUES (%d, 'v%d', %d), (%d, 'w%d', %d)",
				k, k, rng.Intn(50), k+1, k, rng.Intn(50)))
		case r < 65: // update
			both(fmt.Sprintf("UPDATE kv SET n = n + %d, v = 'u%d' WHERE n < %d", rng.Intn(9)+1, step, rng.Intn(60)))
		case r < 80: // delete
			both(fmt.Sprintf("DELETE FROM kv WHERE n > %d", 20+rng.Intn(40)))
		case r < 90: // transaction, committed or rolled back
			end := "COMMIT"
			if rng.Intn(2) == 0 {
				end = "ROLLBACK"
			}
			both("BEGIN")
			both(fmt.Sprintf("INSERT INTO kv (k, v, n) VALUES (%d, 'txn', %d)", nextKey, rng.Intn(50)))
			nextKey += 2
			both(fmt.Sprintf("UPDATE kv SET n = 0 WHERE k = %d", rng.Intn(nextKey+1)))
			both(end)
			if end == "ROLLBACK" {
				nextKey -= 2 // the oracle rolled it back too; key is free again
			}
		default: // explicit checkpoint
			if err := db.Checkpoint(); err != nil {
				t.Fatalf("checkpoint: %v", err)
			}
		}

		if step%40 == 17 { // "crash" (lock released, nothing flushed beyond commits) and recover
			db.Close()
			db2, err := Open(dir, opts)
			if err != nil {
				t.Fatalf("step %d: reopen: %v", step, err)
			}
			db = db2
			if got, want := dump(t, db), dump(t, oracle); got != want {
				t.Fatalf("step %d: recovered state diverged from oracle:\ngot:\n%s\nwant:\n%s", step, got, want)
			}
		}
	}
	if got, want := dump(t, db), dump(t, oracle); got != want {
		t.Fatalf("final state diverged:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestTornTailRecovery truncates the WAL mid-frame — what a crash during
// an append leaves behind — and verifies recovery keeps every earlier
// commit and drops only the torn one.
func TestTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE t (a INT)")
	mustExec(t, db, "INSERT INTO t (a) VALUES (1)")
	want := dump(t, db)
	mustExec(t, db, "INSERT INTO t (a) VALUES (2)") // this commit will be torn
	db.Close()

	walPath := filepath.Join(dir, walFileName)
	info, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(walPath, info.Size()-3); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir, DurabilityOptions{})
	if err != nil {
		t.Fatalf("open with torn tail: %v", err)
	}
	if got := dump(t, db2); got != want {
		t.Fatalf("torn-tail recovery:\ngot:\n%s\nwant:\n%s", got, want)
	}
	// The torn tail was cut; the log must accept new commits.
	mustExec(t, db2, "INSERT INTO t (a) VALUES (3)")
	want2 := dump(t, db2)
	db2.Close()
	db3, err := Open(dir, DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	if got := dump(t, db3); got != want2 {
		t.Fatalf("post-repair commit lost:\n%s", got)
	}
}

// TestCheckpointTruncatesAndSkips verifies checkpoints shrink the log and
// that a stale log surviving next to a newer snapshot (a crash between the
// snapshot rename and the log truncation) is not double-applied.
func TestCheckpointTruncatesAndSkips(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE t (a INT)")
	for i := 0; i < 20; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO t (a) VALUES (%d)", i))
	}
	preWal, _ := os.Stat(filepath.Join(dir, walFileName))
	// Save the pre-checkpoint WAL: replaying it over the snapshot models
	// the crash-between-snapshot-and-truncate window.
	staleWal, err := os.ReadFile(filepath.Join(dir, walFileName))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	postWal, _ := os.Stat(filepath.Join(dir, walFileName))
	if postWal.Size() >= preWal.Size() {
		t.Fatalf("checkpoint did not truncate wal: %d -> %d bytes", preWal.Size(), postWal.Size())
	}
	want := dump(t, db)
	db.Close()

	if err := os.WriteFile(filepath.Join(dir, walFileName), staleWal, 0o600); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := dump(t, db2); got != want {
		t.Fatalf("stale wal was double-applied:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestMetaDurability checks the application-metadata blob commits
// atomically with the statements it rides on.
func TestMetaDurability(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE t (a INT)")

	st := mustParse(t, "INSERT INTO t (a) VALUES (1)")
	if _, err := db.ExecWithMeta(st, []byte("m1")); err != nil {
		t.Fatal(err)
	}
	// Inside a rolled-back transaction: neither rows nor meta commit.
	mustExec(t, db, "BEGIN")
	if _, err := db.ExecWithMeta(mustParse(t, "INSERT INTO t (a) VALUES (2)"), []byte("m2")); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "ROLLBACK")
	// Inside a committed transaction: both commit together.
	mustExec(t, db, "BEGIN")
	if _, err := db.ExecWithMeta(mustParse(t, "INSERT INTO t (a) VALUES (3)"), []byte("m3")); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "COMMIT")
	db.Close()

	db2, err := Open(dir, DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := string(db2.Meta()); got != "m3" {
		t.Fatalf("recovered meta = %q, want %q", got, "m3")
	}
	if res := mustExec(t, db2, "SELECT a FROM t"); len(res.Rows) != 2 {
		t.Fatalf("recovered %d rows, want 2", len(res.Rows))
	}

	// The empty list commits the blob standalone and survives a checkpoint.
	if _, err := db2.ExecAutonomousListWithMeta(nil, []byte("m4")); err != nil {
		t.Fatal(err)
	}
	if err := db2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db2.Close()
	db3, err := Open(dir, DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	if got := string(db3.Meta()); got != "m4" {
		t.Fatalf("post-checkpoint meta = %q, want %q", got, "m4")
	}
}

// TestInsertStatementAtomic: a multi-row INSERT that fails part-way must
// leave no rows behind (matching what the WAL records for it: nothing).
func TestInsertStatementAtomic(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (id INT PRIMARY KEY)")
	mustExec(t, db, "INSERT INTO t (id) VALUES (1)")
	if _, err := db.ExecSQL("INSERT INTO t (id) VALUES (2), (3), (1)"); err == nil {
		t.Fatal("duplicate key insert succeeded")
	}
	res := mustExec(t, db, "SELECT id FROM t")
	if len(res.Rows) != 1 {
		t.Fatalf("failed INSERT left partial rows: %d rows, want 1", len(res.Rows))
	}
	// Same inside a transaction: rollback after the failed statement must
	// not be confused by its reverted undo records.
	mustExec(t, db, "BEGIN")
	mustExec(t, db, "INSERT INTO t (id) VALUES (10)")
	if _, err := db.ExecSQL("INSERT INTO t (id) VALUES (11), (1)"); err == nil {
		t.Fatal("duplicate key insert succeeded in txn")
	}
	mustExec(t, db, "INSERT INTO t (id) VALUES (12)")
	mustExec(t, db, "ROLLBACK")
	res = mustExec(t, db, "SELECT id FROM t")
	if len(res.Rows) != 1 {
		t.Fatalf("rollback after failed INSERT: %d rows, want 1", len(res.Rows))
	}
}

// TestDataDirLocked: two live databases over one directory would
// interleave WAL frames; the second Open must fail until the first closes.
func TestDataDirLocked(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, DurabilityOptions{}); err == nil {
		t.Fatal("second Open of a live data dir succeeded")
	}
	db.Close()
	db2, err := Open(dir, DurabilityOptions{})
	if err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	db2.Close()
}

// TestWriteAfterCloseFails: a closed durable database must refuse writes
// rather than silently diverging from disk.
func TestWriteAfterCloseFails(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE t (a INT)")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.ExecSQL("INSERT INTO t (a) VALUES (1)"); err == nil {
		t.Fatal("write after Close succeeded")
	}
}

// BenchmarkConcurrentWriters measures single-statement write throughput at
// 1/4/16 concurrent sessions, fsync on, with and without WAL group commit:
// the acceptance figure for the session/group-commit work. Without group
// commit every committer pays its own fsync, serialized; with it a cohort
// shares one, so throughput should scale with the writer count until the
// device saturates.
//
// The txn arm wraps every 4 inserts in BEGIN..COMMIT: buffered
// transactional writes run under the database *read* lock with the striped
// slot-lock table arbitrating conflicts, so concurrent sessions overlap
// where the seed's per-table lock map (guarded by the global mutex)
// serialized them — the delta for the ROADMAP's lock-table-granularity
// item.
func BenchmarkConcurrentWriters(b *testing.B) {
	payload := strings.Repeat("x", 64)
	for _, mode := range []struct {
		name    string
		noGroup bool
		txn     bool
	}{
		{"serialized", true, false},
		{"groupcommit", false, false},
		{"groupcommit-txn4", false, true},
	} {
		for _, sessions := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("%s/sessions=%d", mode.name, sessions), func(b *testing.B) {
				db, err := Open(b.TempDir(), DurabilityOptions{
					CheckpointBytes: -1,
					NoGroupCommit:   mode.noGroup,
				})
				if err != nil {
					b.Fatal(err)
				}
				defer db.Close()
				if _, err := db.ExecSQL("CREATE TABLE t (id INT, payload TEXT)"); err != nil {
					b.Fatal(err)
				}
				st := mustParseB(b, "INSERT INTO t (id, payload) VALUES (?, ?)")
				begin := mustParseB(b, "BEGIN")
				commit := mustParseB(b, "COMMIT")
				var next int64
				b.ResetTimer()
				var wg sync.WaitGroup
				errCh := make(chan error, sessions)
				for g := 0; g < sessions; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						s := db.NewSession()
						defer s.Close()
						run := func(i int64) error {
							_, err := s.Exec(st, Int(i), Text(payload))
							return err
						}
						if mode.txn {
							run = func(i int64) error {
								if _, err := s.Exec(begin); err != nil {
									return err
								}
								for k := int64(0); k < 4; k++ {
									if _, err := s.Exec(st, Int(i*4+k), Text(payload)); err != nil {
										return err
									}
								}
								_, err := s.Exec(commit)
								return err
							}
						}
						for {
							i := atomic.AddInt64(&next, 1)
							if i > int64(b.N) {
								return
							}
							if err := run(i); err != nil {
								errCh <- err
								return
							}
						}
					}()
				}
				wg.Wait()
				b.StopTimer()
				close(errCh)
				for err := range errCh {
					b.Fatal(err)
				}
			})
		}
	}
}

// BenchmarkWALAppend measures the write path against the in-memory
// baseline: the figure the durability PR must not regress silently.
func BenchmarkWALAppend(b *testing.B) {
	for _, cfg := range []struct {
		name string
		open func(b *testing.B) *DB
	}{
		{"memory", func(b *testing.B) *DB { return New() }},
		{"wal-nofsync", func(b *testing.B) *DB {
			db, err := Open(b.TempDir(), DurabilityOptions{NoFsync: true, CheckpointBytes: -1})
			if err != nil {
				b.Fatal(err)
			}
			return db
		}},
		{"wal-fsync", func(b *testing.B) *DB {
			db, err := Open(b.TempDir(), DurabilityOptions{CheckpointBytes: -1})
			if err != nil {
				b.Fatal(err)
			}
			return db
		}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			db := cfg.open(b)
			if _, err := db.ExecSQL("CREATE TABLE t (id INT, payload TEXT)"); err != nil {
				b.Fatal(err)
			}
			st := mustParseB(b, "INSERT INTO t (id, payload) VALUES (?, ?)")
			payload := strings.Repeat("x", 64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Exec(st, Int(int64(i)), Text(payload)); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			db.Close()
		})
	}
}
