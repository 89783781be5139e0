package sqldb

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func mustSess(t *testing.T, s *Session, sql string, params ...Value) *Result {
	t.Helper()
	res, err := s.ExecSQL(sql, params...)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return res
}

// TestSessionsConcurrentTxns is the tentpole acceptance check: two sessions
// hold open transactions at the same time, each sees its own writes but not
// the other's, and both commit without interleaving their effects.
func TestSessionsConcurrentTxns(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
	mustExec(t, db, "INSERT INTO t (id, v) VALUES (1, 'base')")

	a, b := db.NewSession(), db.NewSession()
	defer a.Close()
	defer b.Close()

	mustSess(t, a, "BEGIN")
	mustSess(t, b, "BEGIN")
	mustSess(t, a, "INSERT INTO t (id, v) VALUES (2, 'from-a')")
	mustSess(t, b, "INSERT INTO t (id, v) VALUES (3, 'from-b')")
	mustSess(t, b, "UPDATE t SET v = 'b-owned' WHERE id = 1")

	// Read-your-writes: each session sees its own buffer plus committed
	// state, never the other's buffer.
	if res := mustSess(t, a, "SELECT COUNT(*) FROM t"); res.Rows[0][0].I != 2 {
		t.Fatalf("a sees %v rows, want 2 (base + own insert)", res.Rows[0][0])
	}
	if res := mustSess(t, b, "SELECT v FROM t WHERE id = 1"); res.Rows[0][0].S != "b-owned" {
		t.Fatalf("b does not see its own update: %v", res.Rows[0][0])
	}
	if res := mustSess(t, a, "SELECT v FROM t WHERE id = 1"); res.Rows[0][0].S != "base" {
		t.Fatalf("a sees b's uncommitted update: %v", res.Rows[0][0])
	}
	// A third, transaction-free observer sees only committed state.
	if res := mustExec(t, db, "SELECT COUNT(*) FROM t"); res.Rows[0][0].I != 1 {
		t.Fatalf("observer sees %v rows, want 1", res.Rows[0][0])
	}

	mustSess(t, a, "COMMIT")
	mustSess(t, b, "COMMIT")
	res := mustExec(t, db, "SELECT COUNT(*) FROM t")
	if res.Rows[0][0].I != 3 {
		t.Fatalf("after both commits: %v rows, want 3", res.Rows[0][0])
	}
	if res := mustExec(t, db, "SELECT v FROM t WHERE id = 1"); res.Rows[0][0].S != "b-owned" {
		t.Fatalf("b's update lost: %v", res.Rows[0][0])
	}
}

// TestSessionWriteConflict checks first-writer-wins on row slots: the
// second transaction to write a row fails immediately, nothing of its
// failing statement applies, and the winner commits cleanly.
func TestSessionWriteConflict(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE acct (id INT PRIMARY KEY, bal INT)")
	mustExec(t, db, "INSERT INTO acct (id, bal) VALUES (1, 100), (2, 200)")

	a, b := db.NewSession(), db.NewSession()
	defer a.Close()
	defer b.Close()
	mustSess(t, a, "BEGIN")
	mustSess(t, b, "BEGIN")
	mustSess(t, a, "UPDATE acct SET bal = bal - 10 WHERE id = 1")

	var wc *WriteConflictError
	if _, err := b.ExecSQL("UPDATE acct SET bal = bal - 70 WHERE id = 1"); !errors.As(err, &wc) {
		t.Fatalf("second writer: err = %v, want WriteConflictError", err)
	}
	// A statement touching both a free and a locked row must apply
	// nothing (statement atomicity).
	if _, err := b.ExecSQL("UPDATE acct SET bal = 0"); !errors.As(err, &wc) {
		t.Fatalf("mixed update: err = %v, want WriteConflictError", err)
	}
	mustSess(t, b, "UPDATE acct SET bal = bal + 5 WHERE id = 2") // untouched row: fine
	// An autocommit DELETE from a third party also respects the locks.
	if _, err := db.ExecSQL("DELETE FROM acct WHERE id = 1"); !errors.As(err, &wc) {
		t.Fatalf("autocommit delete of locked row: err = %v, want WriteConflictError", err)
	}

	mustSess(t, b, "ROLLBACK")
	mustSess(t, a, "COMMIT")
	// A's lock released at commit: B can retry on a new transaction.
	mustSess(t, b, "BEGIN")
	mustSess(t, b, "UPDATE acct SET bal = bal - 70 WHERE id = 1")
	mustSess(t, b, "COMMIT")
	res := mustExec(t, db, "SELECT bal FROM acct WHERE id = 1")
	if res.Rows[0][0].I != 20 {
		t.Fatalf("bal = %v, want 20 (100 - 10 - 70; b's rolled-back +5 and 0-write gone)", res.Rows[0][0])
	}
	if res := mustExec(t, db, "SELECT bal FROM acct WHERE id = 2"); res.Rows[0][0].I != 200 {
		t.Fatalf("bal(2) = %v, want 200", res.Rows[0][0])
	}
}

// TestSessionAutoRollbackOnClose: a session that disappears mid-transaction
// (client disconnect) must release its locks and discard its buffer.
func TestSessionAutoRollbackOnClose(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (a INT)")
	mustExec(t, db, "INSERT INTO t (a) VALUES (1)")

	s := db.NewSession()
	mustSess(t, s, "BEGIN")
	mustSess(t, s, "UPDATE t SET a = 99")
	mustSess(t, s, "INSERT INTO t (a) VALUES (2)")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ExecSQL("SELECT a FROM t"); err == nil {
		t.Fatal("closed session still executes")
	}

	res := mustExec(t, db, "SELECT a FROM t")
	if len(res.Rows) != 1 || res.Rows[0][0].I != 1 {
		t.Fatalf("closed session leaked writes: %v", res.Rows)
	}
	// The lock must be gone: an autocommit update succeeds.
	mustExec(t, db, "UPDATE t SET a = 5")
	if db.InTxn() {
		t.Fatal("InTxn still true after session close")
	}
}

// TestTxnUniqueDeferredToCommit: UNIQUE constraints are validated
// authoritatively at COMMIT; a violation rolls the whole transaction back.
func TestTxnUniqueDeferredToCommit(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	mustExec(t, db, "INSERT INTO t (id, v) VALUES (1, 10)")

	a, b := db.NewSession(), db.NewSession()
	defer a.Close()
	defer b.Close()

	// First committer wins: both transactions insert id=7.
	mustSess(t, a, "BEGIN")
	mustSess(t, b, "BEGIN")
	mustSess(t, a, "INSERT INTO t (id, v) VALUES (7, 70)")
	mustSess(t, a, "UPDATE t SET v = 11 WHERE id = 1")
	mustSess(t, b, "INSERT INTO t (id, v) VALUES (7, 700)")
	mustSess(t, a, "COMMIT")
	if _, err := b.ExecSQL("COMMIT"); err == nil {
		t.Fatal("conflicting COMMIT should fail")
	}
	// B's transaction rolled back as a unit; A's effects intact.
	res := mustExec(t, db, "SELECT v FROM t WHERE id = 7")
	if len(res.Rows) != 1 || res.Rows[0][0].I != 70 {
		t.Fatalf("id=7: %v, want v=70 from A only", res.Rows)
	}
	if res := mustExec(t, db, "SELECT v FROM t WHERE id = 1"); res.Rows[0][0].I != 11 {
		t.Fatalf("A's update missing: %v", res.Rows[0][0])
	}
	// B's session is usable again.
	mustSess(t, b, "BEGIN")
	mustSess(t, b, "INSERT INTO t (id, v) VALUES (8, 80)")
	mustSess(t, b, "COMMIT")

	// Delete + re-insert of the same key inside one transaction commits
	// cleanly (deletes apply before inserts).
	mustSess(t, a, "BEGIN")
	mustSess(t, a, "DELETE FROM t WHERE id = 8")
	mustSess(t, a, "INSERT INTO t (id, v) VALUES (8, 88)")
	mustSess(t, a, "COMMIT")
	if res := mustExec(t, db, "SELECT v FROM t WHERE id = 8"); res.Rows[0][0].I != 88 {
		t.Fatalf("re-inserted key: %v", res.Rows[0][0])
	}
}

// TestSessionTxnReadYourWrites drives multi-statement flows through the
// merged-view path: updates of pending inserts, deletes of pending inserts,
// and reads that mix overlay and committed rows.
func TestSessionTxnReadYourWrites(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (k INT, v INT)")
	mustExec(t, db, "INSERT INTO t (k, v) VALUES (1, 100)")

	s := db.NewSession()
	defer s.Close()
	mustSess(t, s, "BEGIN")
	mustSess(t, s, "INSERT INTO t (k, v) VALUES (2, 200), (3, 300)")
	mustSess(t, s, "UPDATE t SET v = v + 1 WHERE k = 2") // update a pending insert
	mustSess(t, s, "DELETE FROM t WHERE k = 3")          // delete a pending insert
	mustSess(t, s, "UPDATE t SET v = v + 7 WHERE k = 1") // update a committed row
	mustSess(t, s, "UPDATE t SET v = v + 7 WHERE k = 1") // twice: reads its own mod

	res := mustSess(t, s, "SELECT k, v FROM t ORDER BY k")
	want := [][2]int64{{1, 114}, {2, 201}}
	if len(res.Rows) != len(want) {
		t.Fatalf("rows = %v", res.Rows)
	}
	for i, w := range want {
		if res.Rows[i][0].I != w[0] || res.Rows[i][1].I != w[1] {
			t.Fatalf("row %d = %v, want %v", i, res.Rows[i], w)
		}
	}
	// Aggregates read through the write set too.
	if res := mustSess(t, s, "SELECT SUM(v) FROM t"); res.Rows[0][0].I != 315 {
		t.Fatalf("sum = %v, want 315", res.Rows[0][0])
	}
	mustSess(t, s, "COMMIT")
	if res := mustExec(t, db, "SELECT SUM(v) FROM t"); res.Rows[0][0].I != 315 {
		t.Fatalf("committed sum = %v, want 315", res.Rows[0][0])
	}
}

// TestSessionInterleavingStress is the schedule-interleaving stress test: K
// sessions run randomized transactions (single-statement read-modify-write
// transfers between accounts, marker inserts, rollbacks) under adversarial
// goroutine scheduling. Committed effects must be serializable: transfers
// preserve the total, every concurrent SUM probe observes the invariant
// (probes never see a half-applied transaction), and the final state must
// equal a serial oracle replaying exactly the committed transactions.
func TestSessionInterleavingStress(t *testing.T) {
	const (
		sessions = 8
		accounts = 6
		txnsEach = 60
		initial  = 1000
	)
	db := New()
	mustExec(t, db, "CREATE TABLE acct (id INT PRIMARY KEY, bal INT)")
	mustExec(t, db, "CREATE TABLE mark (sess INT, n INT)")
	for i := 0; i < accounts; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO acct (id, bal) VALUES (%d, %d)", i, initial))
	}

	type committedTxn struct {
		order int64
		sqls  []string
	}
	var (
		commitSeq int64
		cmu       sync.Mutex
		committed []committedTxn
	)

	var wg sync.WaitGroup
	errCh := make(chan error, sessions+1)
	for g := 0; g < sessions; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) * 7919))
			s := db.NewSession()
			defer s.Close()
			for i := 0; i < txnsEach; i++ {
				from, to := rng.Intn(accounts), rng.Intn(accounts)
				amt := rng.Intn(20) + 1
				sqls := []string{
					fmt.Sprintf("UPDATE acct SET bal = bal - %d WHERE id = %d", amt, from),
					fmt.Sprintf("UPDATE acct SET bal = bal + %d WHERE id = %d", amt, to),
					fmt.Sprintf("INSERT INTO mark (sess, n) VALUES (%d, %d)", g, i),
				}
				if _, err := s.ExecSQL("BEGIN"); err != nil {
					errCh <- err
					return
				}
				aborted := false
				for _, q := range sqls {
					if _, err := s.ExecSQL(q); err != nil {
						var wc *WriteConflictError
						if !errors.As(err, &wc) {
							errCh <- fmt.Errorf("%s: %v", q, err)
							return
						}
						if _, rerr := s.ExecSQL("ROLLBACK"); rerr != nil {
							errCh <- rerr
							return
						}
						aborted = true
						break
					}
				}
				if aborted {
					continue
				}
				if rng.Intn(5) == 0 { // deliberate rollback
					if _, err := s.ExecSQL("ROLLBACK"); err != nil {
						errCh <- err
						return
					}
					continue
				}
				if _, err := s.ExecSQL("COMMIT"); err != nil {
					errCh <- err
					return
				}
				// Commit order for the oracle. Conflicting transactions
				// cannot race here: the loser's slot locks are only
				// released by this COMMIT, so any dependent transaction
				// records a strictly later order.
				n := atomic.AddInt64(&commitSeq, 1)
				cmu.Lock()
				committed = append(committed, committedTxn{order: n, sqls: sqls})
				cmu.Unlock()
			}
		}(g)
	}
	// A reader session hammers invariant probes throughout the storm: the
	// total balance must never waver, no matter how commits interleave.
	probeDone := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(probeDone)
		for i := 0; i < 200; i++ {
			res, err := db.ExecSQL("SELECT SUM(bal) FROM acct")
			if err != nil {
				errCh <- err
				return
			}
			if got := res.Rows[0][0].I; got != accounts*initial {
				errCh <- fmt.Errorf("probe %d: SUM(bal) = %d, want %d (half-applied commit visible)", i, got, accounts*initial)
				return
			}
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Serial oracle: replay the committed transactions, in commit order,
	// on a fresh single-session database. Exact state equality proves the
	// committed effects are serializable in that order.
	oracle := New()
	mustExec(t, oracle, "CREATE TABLE acct (id INT PRIMARY KEY, bal INT)")
	mustExec(t, oracle, "CREATE TABLE mark (sess INT, n INT)")
	for i := 0; i < accounts; i++ {
		mustExec(t, oracle, fmt.Sprintf("INSERT INTO acct (id, bal) VALUES (%d, %d)", i, initial))
	}
	cmu.Lock()
	replay := append([]committedTxn(nil), committed...)
	cmu.Unlock()
	for i := range replay {
		for j := i + 1; j < len(replay); j++ {
			if replay[j].order < replay[i].order {
				replay[i], replay[j] = replay[j], replay[i]
			}
		}
	}
	for _, txn := range replay {
		for _, q := range txn.sqls {
			mustExec(t, oracle, q)
		}
	}
	if got, want := dump(t, db), dump(t, oracle); got != want {
		t.Fatalf("final state is not serializable in commit order:\ngot:\n%s\nwant:\n%s", got, want)
	}
	res := mustExec(t, db, "SELECT COUNT(*) FROM mark")
	if res.Rows[0][0].I != int64(len(replay)) {
		t.Fatalf("markers = %v, committed = %d", res.Rows[0][0], len(replay))
	}
}

// TestGroupCommitConcurrency drives concurrent durable committers and
// checks (a) fsyncs were actually shared across commits, and (b) every
// acknowledged commit survives a reopen.
func TestGroupCommitConcurrency(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE t (g INT, i INT)")

	const writers, each = 8, 40
	// Pre-parsed statements: the hot loop must be commit-bound, not
	// parser-bound, for cohorts to form within the straggler window even
	// under the race detector's slowdown.
	ins := mustParse(t, "INSERT INTO t (g, i) VALUES (?, ?)")
	begin := mustParse(t, "BEGIN")
	commit := mustParse(t, "COMMIT")
	var wg sync.WaitGroup
	errCh := make(chan error, writers)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := db.NewSession()
			defer s.Close()
			for i := 0; i < each; i++ {
				if i%4 == 0 { // some as explicit transactions
					if _, err := s.Exec(begin); err != nil {
						errCh <- err
						return
					}
					if _, err := s.Exec(ins, Int(int64(g)), Int(int64(i))); err != nil {
						errCh <- err
						return
					}
					if _, err := s.Exec(commit); err != nil {
						errCh <- err
						return
					}
					continue
				}
				if _, err := s.Exec(ins, Int(int64(g)), Int(int64(i))); err != nil {
					errCh <- err
					return
				}
				// Yield between statements: real clients block on network
				// reads between commits, giving other sessions CPU time.
				// Without this, a single-core host can run each closed
				// loop to completion back-to-back and no two committers
				// are ever in flight together.
				runtime.Gosched()
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	stats := db.WALStats()
	if stats.Syncs >= stats.Batches {
		t.Errorf("no fsync sharing: syncs=%d batches=%d (cohorts never formed)", stats.Syncs, stats.Batches)
	}
	db.Close()
	db2, err := Open(dir, DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	res := mustExec(t, db2, "SELECT COUNT(*) FROM t")
	if res.Rows[0][0].I != writers*each {
		t.Fatalf("recovered %v rows, want %d", res.Rows[0][0], writers*each)
	}
}

// TestCrashDuringGroupCommit truncates the WAL at every possible byte
// offset after a burst of concurrently committed multi-row transactions,
// and requires recovery to honor batch atomicity: each transaction's rows
// are either all present or all absent.
func TestCrashDuringGroupCommit(t *testing.T) {
	const writers, rowsPerTxn = 6, 5
	dir := t.TempDir()
	db, err := Open(dir, DurabilityOptions{NoFsync: true, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE t (tag INT, i INT)")

	var wg sync.WaitGroup
	errCh := make(chan error, writers)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := db.NewSession()
			defer s.Close()
			for _, q := range []string{
				"BEGIN",
				fmt.Sprintf("INSERT INTO t (tag, i) VALUES (%d, 0), (%d, 1), (%d, 2), (%d, 3), (%d, 4)", g, g, g, g, g),
				"COMMIT",
			} {
				if _, err := s.ExecSQL(q); err != nil {
					errCh <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	db.Close()

	walPath := filepath.Join(dir, walFileName)
	full, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	crashDir := t.TempDir()
	step := 7 // every offset is slow; a small prime stride still hits frames mid-payload
	for cut := walHeaderLen; cut <= len(full); cut += step {
		if err := os.WriteFile(filepath.Join(crashDir, walFileName), full[:cut], 0o600); err != nil {
			t.Fatal(err)
		}
		db2, err := Open(crashDir, DurabilityOptions{NoFsync: true})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		res, err := db2.ExecSQL("SELECT tag, COUNT(*) FROM t GROUP BY tag")
		if err != nil {
			// The CREATE TABLE frame itself may be cut off: then the
			// table is simply absent, which is a valid whole-batch loss.
			if cut < walHeaderLen+100 {
				db2.Close()
				os.Remove(filepath.Join(crashDir, walFileName))
				os.Remove(filepath.Join(crashDir, lockFileName))
				continue
			}
			t.Fatalf("cut %d: %v", cut, err)
		}
		for _, row := range res.Rows {
			if row[1].I != rowsPerTxn {
				t.Fatalf("cut %d: tag %v has %v rows — transaction replayed partially", cut, row[0], row[1])
			}
		}
		db2.Close()
		os.Remove(filepath.Join(crashDir, walFileName))
		os.Remove(filepath.Join(crashDir, lockFileName))
	}
}

// TestSessionTxnDurability: a transaction committed through a session (and
// its attached metadata) survives reopen; a rolled-back one does not.
func TestSessionTxnDurability(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE t (a INT)")
	s := db.NewSession()
	mustSess(t, s, "BEGIN")
	mustSess(t, s, "INSERT INTO t (a) VALUES (1)")
	if _, err := s.ExecWithMeta(mustParse(t, "INSERT INTO t (a) VALUES (2)"), []byte("blob-v2")); err != nil {
		t.Fatal(err)
	}
	mustSess(t, s, "COMMIT")
	mustSess(t, s, "BEGIN")
	mustSess(t, s, "INSERT INTO t (a) VALUES (3)")
	mustSess(t, s, "ROLLBACK")
	s.Close()
	want := dump(t, db)
	db.Close()

	db2, err := Open(dir, DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := dump(t, db2); got != want {
		t.Fatalf("recovered state differs:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if string(db2.Meta()) != "blob-v2" {
		t.Fatalf("meta = %q, want blob-v2 (committed with the transaction)", db2.Meta())
	}
	res := mustExec(t, db2, "SELECT COUNT(*) FROM t")
	if res.Rows[0][0].I != 2 {
		t.Fatalf("rows = %v, want 2", res.Rows[0][0])
	}
}

// TestCheckpointWithOpenTxn: a checkpoint taken while transactions are open
// captures only committed state, and the transactions commit durably on
// top of it.
func TestCheckpointWithOpenTxn(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE t (a INT)")
	mustExec(t, db, "INSERT INTO t (a) VALUES (1)")

	s := db.NewSession()
	mustSess(t, s, "BEGIN")
	mustSess(t, s, "INSERT INTO t (a) VALUES (2)")
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mustSess(t, s, "COMMIT")
	s.Close()
	want := dump(t, db)
	db.Close()

	db2, err := Open(dir, DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := dump(t, db2); got != want {
		t.Fatalf("recovered state differs:\ngot:\n%s\nwant:\n%s", got, want)
	}
	res := mustExec(t, db2, "SELECT COUNT(*) FROM t")
	if res.Rows[0][0].I != 2 {
		t.Fatalf("rows = %v, want 2", res.Rows[0][0])
	}
}

// TestEmptyOverlayDoesNotBlockCommit: a statement that matches zero rows
// registers a table with the transaction but buffers nothing; that must
// neither block DROP TABLE nor poison the eventual COMMIT.
func TestEmptyOverlayDoesNotBlockCommit(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (k INT)")
	mustExec(t, db, "CREATE TABLE u (k INT)")

	s := db.NewSession()
	defer s.Close()
	mustSess(t, s, "BEGIN")
	if res := mustSess(t, s, "UPDATE t SET k = 1 WHERE k = 999"); res.Affected != 0 {
		t.Fatalf("affected = %d, want 0", res.Affected)
	}
	mustExec(t, db, "DROP TABLE t") // nothing buffered: drop may proceed
	mustSess(t, s, "INSERT INTO u (k) VALUES (7)")
	mustSess(t, s, "COMMIT") // must not fail over the dropped, untouched t
	if res := mustExec(t, db, "SELECT COUNT(*) FROM u"); res.Rows[0][0].I != 1 {
		t.Fatalf("u rows = %v, want 1", res.Rows[0][0])
	}
}

// TestTxnMetaNotAttachedOnFailure: a failed ExecWithMeta inside a
// transaction must not leave its metadata blob to commit with the
// transaction — the blob describes a change that never applied.
func TestTxnMetaNotAttachedOnFailure(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE t (k INT PRIMARY KEY)")
	mustExec(t, db, "INSERT INTO t (k) VALUES (1)")

	s := db.NewSession()
	mustSess(t, s, "BEGIN")
	if _, err := s.ExecWithMeta(mustParse(t, "INSERT INTO t (k) VALUES (2)"), []byte("good")); err != nil {
		t.Fatal(err)
	}
	// Statement errors (bad column): its blob must be discarded.
	if _, err := s.ExecWithMeta(mustParse(t, "UPDATE t SET nosuch = 3"), []byte("bad")); err == nil {
		t.Fatal("update of missing column should fail")
	}
	mustSess(t, s, "COMMIT")
	if string(db.Meta()) != "good" {
		t.Fatalf("meta = %q, want the last successful statement's blob", db.Meta())
	}
	s.Close()
	db.Close()
	db2, err := Open(dir, DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if string(db2.Meta()) != "good" {
		t.Fatalf("recovered meta = %q, want good", db2.Meta())
	}
}

// TestWALPoisonedAfterWriteFailure: after a cohort write fails, the file
// may hold a torn frame, so later commits must fail fast instead of
// appending past the damage (recovery cuts at the first bad frame and
// would silently drop them despite their durability ack).
func TestWALPoisonedAfterWriteFailure(t *testing.T) {
	db, err := Open(t.TempDir(), DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, "CREATE TABLE t (a INT)")
	mustExec(t, db, "INSERT INTO t (a) VALUES (1)")

	// Sabotage the file descriptor: the next cohort write errors.
	db.wal.f.Close()
	var de *DurabilityError
	if _, err := db.ExecSQL("INSERT INTO t (a) VALUES (2)"); !errors.As(err, &de) {
		t.Fatalf("write after fd close: err = %v, want DurabilityError", err)
	}
	// And every commit after that fails fast on the poisoned writer.
	if _, err := db.ExecSQL("INSERT INTO t (a) VALUES (3)"); !errors.As(err, &de) ||
		!strings.Contains(err.Error(), "disabled by earlier write failure") {
		t.Fatalf("write on poisoned wal: err = %v, want sticky failure", err)
	}
	// In-memory state kept both rows (statement applied, durability did
	// not) — the documented DurabilityError contract.
	if res := mustExec(t, db, "SELECT COUNT(*) FROM t"); res.Rows[0][0].I != 3 {
		t.Fatalf("rows = %v, want 3", res.Rows[0][0])
	}
}
