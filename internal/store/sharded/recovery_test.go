package sharded

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sqldb"
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

// TestDDLReconcile: DDL run on one shard by hand, outside the engine,
// leaves the shards with different schemas, which no write through the
// engine can: Open refuses the store, naming the shard and the table,
// rather than repair it.
func TestDDLReconcile(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(dir, 3, sqldb.DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	mustExec(t, e, "CREATE INDEX t_v ON t (v)")
	if _, err := e.Shard(2).ExecSQL("DROP TABLE t"); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	wantRefusal(t, dir, "shard 2 holds table t as no such table")

	// An index built on one shard alone is refused too.
	dir = t.TempDir()
	if e, err = Open(dir, 2, sqldb.DurabilityOptions{}); err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	if _, err := e.Shard(1).ExecSQL("CREATE INDEX t_v ON t (v)"); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	wantRefusal(t, dir, "shard 1 holds table t as [{id INT true} {v INT false}] [{id true false} {v false false} {v false true}], shard 0 as [{id INT true} {v INT false}] [{id true false}]")
}

// TestTornDropReconcile: a DROP TABLE run on shard 0 alone, by hand, is
// refused at Open, naming the shards and the table, not completed or
// undone.
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
	if _, err := e.Shard(0).ExecSQL("DROP TABLE t"); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	wantRefusal(t, dir, "shard 1 holds table t as [{id INT true} {v INT false}] [{id true false}], shard 0 as no such table")
}

// wantRefusal opens dir and wants Open refused with an error containing
// want, every shard closed again.
func wantRefusal(t *testing.T, dir, want string) {
	t.Helper()
	e, err := Open(dir, 0, sqldb.DurabilityOptions{})
	if err == nil {
		e.Close()
		t.Fatalf("Open accepted shards with different schemas, want %q", want)
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("Open: %v, want an error naming %q", err, want)
	}
	// The refusal released every shard: a second attempt gets the same
	// answer, not a locked directory.
	if _, err2 := Open(dir, 0, sqldb.DurabilityOptions{}); err2 == nil || err2.Error() != err.Error() {
		t.Fatalf("second Open: %v, want %v", err2, err)
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
