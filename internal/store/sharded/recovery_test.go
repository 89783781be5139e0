package sharded

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sqldb"
	"repro/internal/sqlparser"
)

// TestTornShardRecovery simulates a kill -9 that tore one shard's WAL
// tail: writes land across all shards, the engine is closed, one shard's
// log is truncated mid-frame, and the store reopened. The torn shard's
// un-replayable commits are lost (fail-open, like the single store's torn
// tail); every other shard's rows survive, the schema stays intact on all
// shards, and the engine keeps accepting writes.
func TestTornShardRecovery(t *testing.T) {
	const shards = 3
	dir := t.TempDir()
	e, err := Open(dir, shards, sqldb.DurabilityOptions{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")

	// Phase 1: 60 rows that must survive.
	for i := 1; i <= 60; i++ {
		mustExec(t, e, fmt.Sprintf("INSERT INTO t (id, v) VALUES (%d, %d)", i, i*10))
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	const victim = 1
	walPath := filepath.Join(ShardDir(dir, victim), "wal.log")
	info, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	phase1Size := info.Size()

	// Phase 2: 40 more rows; then "crash" with a torn tail on the victim
	// shard (truncate back into phase 2, mid-frame).
	e, err = Open(dir, 0, sqldb.DurabilityOptions{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	victimPhase2 := map[int]bool{}
	for i := 61; i <= 100; i++ {
		if e.ShardOf("t", sqldb.Int(int64(i))) == victim {
			victimPhase2[i] = true
		}
		mustExec(t, e, fmt.Sprintf("INSERT INTO t (id, v) VALUES (%d, %d)", i, i*10))
	}
	if len(victimPhase2) == 0 {
		t.Fatal("no phase-2 row routed to the victim shard; pick another victim")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(walPath, phase1Size+13); err != nil {
		t.Fatal(err)
	}

	e, err = Open(dir, shards, sqldb.DurabilityOptions{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	res := mustExec(t, e, "SELECT id FROM t")
	got := map[int]bool{}
	for _, row := range res.Rows {
		got[int(row[0].I)] = true
	}
	for i := 1; i <= 60; i++ {
		if !got[i] {
			t.Fatalf("phase-1 row %d lost (only the victim's phase-2 tail may be)", i)
		}
	}
	lost := 0
	for i := 61; i <= 100; i++ {
		switch {
		case victimPhase2[i] && !got[i]:
			lost++
		case !victimPhase2[i] && !got[i]:
			t.Fatalf("row %d on a healthy shard lost", i)
		}
	}
	if lost == 0 {
		t.Fatalf("truncation removed nothing: test did not cut into phase 2")
	}

	// The store must remain fully writable, including on the torn shard.
	for i := 101; i <= 130; i++ {
		mustExec(t, e, fmt.Sprintf("INSERT INTO t (id, v) VALUES (%d, %d)", i, i))
	}
	res = mustExec(t, e, "SELECT COUNT(*) FROM t")
	want := 100 - lost + 30
	if int(res.Rows[0][0].I) != want {
		t.Fatalf("COUNT(*) = %d, want %d", res.Rows[0][0].I, want)
	}
}

// TestShardCountPinned: a durable directory's shard count cannot change.
func TestShardCountPinned(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(dir, 4, sqldb.DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, 2, sqldb.DurabilityOptions{}); err == nil {
		t.Fatal("reopening with a different shard count succeeded")
	}
	e, err = Open(dir, 0, sqldb.DurabilityOptions{}) // 0 = accept manifest
	if err != nil {
		t.Fatal(err)
	}
	if e.Shards() != 4 {
		t.Fatalf("Shards() = %d, want 4", e.Shards())
	}
	e.Close()

	// A deleted manifest beside surviving shard dirs must refuse — not
	// re-pin whatever count the caller passes and open a shard subset.
	if err := os.Remove(filepath.Join(dir, "sharded.json")); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, 2, sqldb.DurabilityOptions{}); err == nil {
		t.Fatal("Open re-pinned a shard count over manifest-less shard dirs")
	}
}

// TestDDLReconcile: a crash between broadcast DDL reaching shard 0 and the
// rest is repaired at open — the lagging shard gets the table and indexes
// re-applied.
func TestDDLReconcile(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(dir, 3, sqldb.DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	mustExec(t, e, "CREATE INDEX t_v ON t (v)")
	// Simulate the torn broadcast: drop the table on one shard directly.
	if _, err := e.Shard(2).ExecSQL("DROP TABLE t"); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e, err = Open(dir, 0, sqldb.DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	st := e.Shard(2).Table("t")
	if st == nil {
		t.Fatal("shard 2 still missing table t after reconcile")
	}
	var hasUnique, hasOrdered bool
	for _, ix := range st.Indexes() {
		if ix.Column == "id" && ix.Unique {
			hasUnique = true
		}
		if ix.Column == "v" && ix.Ordered {
			hasOrdered = true
		}
	}
	if !hasUnique || !hasOrdered {
		t.Fatalf("reconciled indexes incomplete: %+v", st.Indexes())
	}
	if got := st.Cols[0]; !got.Primary || got.Name != "id" {
		t.Fatalf("reconciled schema lost the primary flag: %+v", st.Cols)
	}
	// Routed writes to the reconciled shard work again.
	for i := 1; i <= 20; i++ {
		mustExec(t, e, fmt.Sprintf("INSERT INTO t (id, v) VALUES (%d, %d)", i, i))
	}
}

// TestDDLReconcileTornIndex: a crash between the shards' commits of a
// CREATE INDEX (shard 0 has it, shard 1's log ends before it) is repaired
// at open: shard 1 builds every index shard 0 lists, and a later open,
// with nothing torn, writes nothing. The CREATE INDEX runs bare, and as a
// list of DDL alone with a blob, which commits on every shard: the newest
// blob, recovered from shard 0, records the index.
func TestDDLReconcileTornIndex(t *testing.T) {
	for _, withMeta := range []bool{false, true} {
		t.Run(fmt.Sprintf("meta=%v", withMeta), func(t *testing.T) {
			dir := t.TempDir()
			opts := sqldb.DurabilityOptions{CheckpointBytes: -1}
			e, err := Open(dir, 2, opts)
			if err != nil {
				t.Fatal(err)
			}
			mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
			for i := 1; i <= 20; i++ {
				mustExec(t, e, fmt.Sprintf("INSERT INTO t (id, v) VALUES (%d, %d)", i, i%7))
			}
			if withMeta {
				if _, err := e.ExecAutonomousListWithMeta(nil, []byte("v1")); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			walPath := filepath.Join(ShardDir(dir, 1), "wal.log")
			info, err := os.Stat(walPath)
			if err != nil {
				t.Fatal(err)
			}
			beforeIndex := info.Size()

			e, err = Open(dir, 0, opts)
			if err != nil {
				t.Fatal(err)
			}
			if withMeta {
				st, err := parseOne("CREATE INDEX t_v ON t (v)")
				if err != nil {
					t.Fatal(err)
				}
				if _, err := e.ExecAutonomousListWithMeta([]sqlparser.Statement{st}, []byte("v2")); err != nil {
					t.Fatal(err)
				}
			} else {
				mustExec(t, e, "CREATE INDEX t_v ON t (v)")
			}
			want := e.Shard(0).Table("t").Indexes()
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(walPath, beforeIndex); err != nil {
				t.Fatal(err)
			}

			sizes := func() (s [2]int64) {
				for i := range s {
					info, err := os.Stat(filepath.Join(ShardDir(dir, i), "wal.log"))
					if err != nil {
						t.Fatal(err)
					}
					s[i] = info.Size()
				}
				return s
			}
			var reconciled [2]int64
			for pass := 0; pass < 2; pass++ {
				e, err = Open(dir, 0, opts)
				if err != nil {
					t.Fatal(err)
				}
				for s := 0; s < 2; s++ {
					if got := e.Shard(s).Table("t").Indexes(); fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("open %d: shard %d lists indexes %+v, want shard 0's %+v", pass, s, got, want)
					}
				}
				if withMeta && string(e.Meta()) != "v2" {
					t.Fatalf("open %d: Meta() = %q, want the blob of the CREATE INDEX", pass, e.Meta())
				}
				res := mustExec(t, e, "SELECT COUNT(*) FROM t WHERE v = 3")
				if got := res.Rows[0][0].I; got != 3 {
					t.Fatalf("open %d: %d rows with v = 3, want 3", pass, got)
				}
				if err := e.Close(); err != nil {
					t.Fatal(err)
				}
				if pass == 0 {
					reconciled = sizes()
				} else if got := sizes(); got != reconciled {
					t.Fatalf("an open with nothing torn grew the logs from %v to %v bytes", reconciled, got)
				}
			}
		})
	}
}

// TestTornDropReconcile: a crash mid-DROP-broadcast (shard 0 dropped, the
// rest did not) must complete the drop at open, not resurrect the table
// with a silent subset of its rows.
func TestTornDropReconcile(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(dir, 3, sqldb.DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	for i := 1; i <= 30; i++ {
		mustExec(t, e, fmt.Sprintf("INSERT INTO t (id, v) VALUES (%d, %d)", i, i))
	}
	// Simulate the torn broadcast: DROP reached shard 0 only.
	if _, err := e.Shard(0).ExecSQL("DROP TABLE t"); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e, err = Open(dir, 0, sqldb.DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for s := 0; s < 3; s++ {
		if e.Shard(s).Table("t") != nil {
			t.Fatalf("shard %d resurrected the half-dropped table", s)
		}
	}
	if names := e.TableNames(); len(names) != 0 {
		t.Fatalf("TableNames = %v after completed drop", names)
	}
}

// TestMetaEnvelopeRecovery: the newest metadata blob wins across shards,
// even when a routed commit left other shards' blobs behind.
func TestMetaEnvelopeRecovery(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(dir, 3, sqldb.DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	if _, err := e.ExecAutonomousListWithMeta(nil, []byte("v1-broadcast")); err != nil {
		t.Fatal(err)
	}
	// A routed insert carries a newer blob to exactly one shard.
	st, err := parseOne("INSERT INTO t (id, v) VALUES (7, 70)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.ExecWithMeta(st, []byte("v2-routed")); err != nil {
		t.Fatal(err)
	}
	if got := string(e.Meta()); got != "v2-routed" {
		t.Fatalf("Meta() = %q before restart", got)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e, err = Open(dir, 0, sqldb.DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if got := string(e.Meta()); got != "v2-routed" {
		t.Fatalf("Meta() = %q after restart, want the routed (newest) blob", got)
	}
}
