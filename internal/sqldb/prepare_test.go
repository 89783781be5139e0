package sqldb

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestPreparedPartHeldUntilOutcome: a prepared part is durable and applies
// nothing. A crash before its outcome recovers it held, unapplied, through
// a checkpoint, a reopen and a snapshot; resolved, it publishes every row
// in the slot it got at runtime, or nothing. While it is prepared its
// UNIQUE keys are held: a writer of the same key waits and then fails.
func TestPreparedPartHeldUntilOutcome(t *testing.T) {
	opts := DurabilityOptions{CheckpointBytes: -1}
	dir := t.TempDir()
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	mustExec(t, db, "INSERT INTO t (id, v) VALUES (1, 10), (2, 20), (3, 30)")
	mustExec(t, db, "DELETE FROM t WHERE id = 2") // a free slot the part reuses
	before := db.StateDigest()

	s := db.NewSession()
	defer s.Close()
	if _, err := s.Exec(mustParse(t, "BEGIN")); err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{"INSERT INTO t (id, v) VALUES (4, 40), (5, 50)", "UPDATE t SET v = 11 WHERE id = 1", "CREATE INDEX t_v ON t (v)"} {
		st := mustParse(t, sql)
		if _, err := s.Stage(st); err != nil {
			t.Fatal(err)
		}
	}
	if !s.Writes() {
		t.Fatal("a transaction with rows and DDL reports no writes")
	}
	p, err := s.Prepare(7)
	if err != nil {
		t.Fatal(err)
	}
	crashed := copyTree(t, dir) // the prepared batch is on disk
	dup := make(chan error, 1)
	go func() {
		_, err := db.ExecSQL("INSERT INTO t (id, v) VALUES (4, 0)")
		dup <- err
	}()
	select {
	case err := <-dup:
		t.Fatalf("a write ran while a part was prepared: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	if err := p.Resolve(true); err != nil {
		t.Fatal(err)
	}
	if err := <-dup; err == nil {
		t.Fatal("the prepared part's key was taken before its publication")
	}
	after := db.StateDigest()

	for _, commit := range []bool{false, true} {
		cdir := copyTree(t, crashed)
		c, err := Open(cdir, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.Unresolved(); len(got) != 1 || got[0] != 7 {
			t.Fatalf("recovery holds parts %v, want [7]", got)
		}
		if c.StateDigest() == after {
			t.Fatal("recovery applied the prepared part")
		}
		if err := c.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if c, err = Open(cdir, opts); err != nil {
			t.Fatal(err)
		}
		ops, seq, tap, err := c.TapWithSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		tap.Close()
		follower := New()
		if err := follower.ResetFromSnapshot(ops, seq); err != nil {
			t.Fatal(err)
		}
		for _, held := range []*DB{c, follower} {
			if got := held.Unresolved(); len(got) != 1 || got[0] != 7 {
				t.Fatalf("a checkpoint or snapshot dropped the part: held %v", got)
			}
			if err := held.Resolve(7, commit); err != nil {
				t.Fatal(err)
			}
			want := before
			if commit {
				want = after
			}
			if held.StateDigest() != want {
				t.Fatalf("resolved with commit %v, the state is neither as at runtime", commit)
			}
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPrepareRefusalHoldsNothing: a part whose write set fails its check at
// prepare rolls back, logs nothing and holds no lock.
func TestPrepareRefusalHoldsNothing(t *testing.T) {
	db := New()
	mustExec(t, db, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	s := db.NewSession()
	defer s.Close()
	if _, err := s.Exec(mustParse(t, "BEGIN")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Stage(mustParse(t, "INSERT INTO t (id, v) VALUES (1, 1)")); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "INSERT INTO t (id, v) VALUES (1, 2)") // a concurrent committer takes the key
	if _, err := s.Prepare(1); err == nil {
		t.Fatal("a part over a taken key prepared")
	}
	if got := db.Unresolved(); len(got) != 0 {
		t.Fatalf("a refused part is held: %v", got)
	}
	mustExec(t, db, "INSERT INTO t (id, v) VALUES (2, 2)")
	if _, err := s.Prepare(2); err == nil {
		t.Fatal("PREPARE after the transaction ended succeeded")
	}
}

func copyTree(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o700)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o600)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}
