package sqldb

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

// collectFrames drains a tap until the database's frames reach wantSeq,
// with a timeout so a broken tap fails the test instead of hanging.
func collectFrames(t *testing.T, tap *LogTap, wantSeq uint64) [][]byte {
	t.Helper()
	var frames [][]byte
	deadline := time.Now().Add(5 * time.Second)
	for {
		var last uint64
		if len(frames) > 0 {
			last, _ = FrameSeq(frames[len(frames)-1])
		}
		if last >= wantSeq {
			return frames
		}
		if time.Now().After(deadline) {
			t.Fatalf("tap did not reach seq %d (at %d)", wantSeq, last)
		}
		done := make(chan struct{})
		var blob []byte
		var err error
		go func() { blob, err = tap.Frames(); close(done) }()
		select {
		case <-done:
		case <-time.After(time.Until(deadline)):
			t.Fatalf("tap.Frames blocked; have %d frames, want seq %d", len(frames), wantSeq)
		}
		if err != nil {
			t.Fatalf("tap.Frames: %v", err)
		}
		split, serr := SplitFrames(blob)
		if serr != nil {
			t.Fatalf("SplitFrames: %v", serr)
		}
		frames = append(frames, split...)
	}
}

// replayInto applies frames to a database, failing on any error.
func replayInto(t *testing.T, db *DB, frames [][]byte) {
	t.Helper()
	for _, f := range frames {
		if err := db.ApplyReplicatedFrame(f); err != nil {
			t.Fatalf("ApplyReplicatedFrame: %v", err)
		}
	}
}

// TestTapBackfillAndLive covers the log-tail catch-up path: a tap opened
// at sequence zero yields the frames already on disk, then live commits,
// and replaying all of them on a second database reproduces the state
// exactly (digest, rows and meta).
func TestTapBackfillAndLive(t *testing.T) {
	prim, err := Open(t.TempDir(), DurabilityOptions{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer prim.Close()
	mustExec(t, prim, "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
	mustExec(t, prim, "INSERT INTO t (id, v) VALUES (1, 'a'), (2, 'b')")
	if _, err := prim.ExecAutonomousListWithMeta(nil, []byte("meta-1")); err != nil {
		t.Fatal(err)
	}

	tap, err := prim.TapWAL(0)
	if err != nil {
		t.Fatal(err)
	}
	defer tap.Close()

	// Live commits after the tap exists.
	mustExec(t, prim, "UPDATE t SET v = 'a2' WHERE id = 1")
	mustExec(t, prim, "DELETE FROM t WHERE id = 2")
	mustExec(t, prim, "CREATE INDEX t_v ON t (v)")

	frames := collectFrames(t, tap, prim.Seq())
	// Frames must be strictly increasing in sequence.
	var prev uint64
	for _, f := range frames {
		seq, err := FrameSeq(f)
		if err != nil {
			t.Fatal(err)
		}
		if seq <= prev {
			t.Fatalf("frame seq %d not increasing after %d", seq, prev)
		}
		prev = seq
	}

	fol, err := Open(t.TempDir(), DurabilityOptions{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()
	replayInto(t, fol, frames)
	if got, want := fol.StateDigest(), prim.StateDigest(); got != want {
		t.Fatalf("digest mismatch after replay:\n got %s\nwant %s", got, want)
	}
	if !bytes.Equal(fol.Meta(), []byte("meta-1")) {
		t.Fatalf("meta not replicated: %q", fol.Meta())
	}
	if fol.Seq() != prim.Seq() {
		t.Fatalf("seq mismatch: follower %d, primary %d", fol.Seq(), prim.Seq())
	}
}

// TestTapSeqTruncated proves a checkpoint invalidates old positions: a
// tap request from before the snapshot fails with ErrSeqTruncated, and
// TapWithSnapshot hands over a state+tail pair that reproduces the
// primary exactly.
func TestTapSeqTruncated(t *testing.T) {
	prim, err := Open(t.TempDir(), DurabilityOptions{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer prim.Close()
	mustExec(t, prim, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	mustExec(t, prim, "INSERT INTO t (id, v) VALUES (1, 10)")
	if err := prim.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := prim.TapWAL(0); !errors.Is(err, ErrSeqTruncated) {
		t.Fatalf("TapWAL(0) after checkpoint: got %v, want ErrSeqTruncated", err)
	}
	// Ahead-of-primary positions are also truncations (diverged caller).
	if _, err := prim.TapWAL(prim.Seq() + 100); !errors.Is(err, ErrSeqTruncated) {
		t.Fatalf("TapWAL(ahead): got %v, want ErrSeqTruncated", err)
	}

	ops, seq, tap, err := prim.TapWithSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer tap.Close()
	mustExec(t, prim, "INSERT INTO t (id, v) VALUES (2, 20)")

	fol, err := Open(t.TempDir(), DurabilityOptions{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()
	if err := fol.ResetFromSnapshot(ops, seq); err != nil {
		t.Fatal(err)
	}
	replayInto(t, fol, collectFrames(t, tap, prim.Seq()))
	if fol.StateDigest() != prim.StateDigest() {
		t.Fatal("digest mismatch after snapshot + tail replay")
	}

	// The follower must itself be durable: reopen from its own disk.
	if err := fol.Close(); err != nil {
		t.Fatal(err)
	}
	dir := fol.dir
	fol2, err := Open(dir, DurabilityOptions{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer fol2.Close()
	if fol2.StateDigest() != prim.StateDigest() {
		t.Fatal("digest mismatch after follower restart")
	}
	if fol2.Seq() != prim.Seq() {
		t.Fatalf("restarted follower seq %d, primary %d", fol2.Seq(), prim.Seq())
	}
}

// TestApplyReplicatedFrameRejectsDamage is the torn-stream surface at the
// replay layer: corrupt, truncated or undecodable frames must be refused
// with the state untouched, and redelivered (stale) frames skipped.
func TestApplyReplicatedFrameRejectsDamage(t *testing.T) {
	prim, err := Open(t.TempDir(), DurabilityOptions{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer prim.Close()
	tap, err := prim.TapWAL(0)
	if err != nil {
		t.Fatal(err)
	}
	defer tap.Close()
	mustExec(t, prim, "CREATE TABLE t (id INT PRIMARY KEY)")
	mustExec(t, prim, "INSERT INTO t (id) VALUES (1)")
	frames := collectFrames(t, tap, prim.Seq())

	fol := New() // in-memory follower: replay works without local durability too
	base := fol.StateDigest()

	// Flipped payload byte: CRC must catch it.
	bad := append([]byte(nil), frames[0]...)
	bad[len(bad)-1] ^= 0xFF
	if err := fol.ApplyReplicatedFrame(bad); err == nil {
		t.Fatal("corrupt frame applied")
	}
	// Truncated frame: length check must catch it.
	if err := fol.ApplyReplicatedFrame(frames[0][:len(frames[0])-3]); err == nil {
		t.Fatal("truncated frame applied")
	}
	if fol.StateDigest() != base {
		t.Fatal("damaged frames changed state")
	}

	replayInto(t, fol, frames)
	want := fol.StateDigest()
	// Redelivery of everything must be a no-op.
	replayInto(t, fol, frames)
	if fol.StateDigest() != want {
		t.Fatal("redelivered frames changed state")
	}

	// A frame whose ops cannot apply (unknown table) must fail atomically:
	// frame 2 references table t before its CREATE on a fresh database.
	fresh := New()
	if err := fresh.ApplyReplicatedFrame(frames[1]); err == nil {
		t.Fatal("out-of-order frame applied against missing table")
	}
	if fresh.StateDigest() != base {
		t.Fatal("failed apply left partial state")
	}
}

// TestTapBackpressure forces a tap over its buffer limit and checks the
// lag verdict, instead of letting a stalled subscriber pin the primary's
// memory.
func TestTapBackpressure(t *testing.T) {
	prim, err := Open(t.TempDir(), DurabilityOptions{CheckpointBytes: -1, NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer prim.Close()
	mustExec(t, prim, "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
	tap, err := prim.TapWAL(prim.Seq())
	if err != nil {
		t.Fatal(err)
	}
	defer tap.Close()
	tap.mu.Lock()
	tap.limit = 256 // shrink the buffer so the test overflows it quickly
	tap.mu.Unlock()
	for i := 0; i < 32; i++ {
		mustExec(t, prim, "INSERT INTO t (id, v) VALUES (?, 'xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx')", Int(int64(i)))
	}
	if _, err := tap.Frames(); !errors.Is(err, ErrTapLagged) {
		t.Fatalf("overflowed tap: got %v, want ErrTapLagged", err)
	}
}

// TestResetFromSnapshotAtomicity: a malformed stream leaves the database
// untouched; open transactions block a reset.
func TestResetFromSnapshotAtomicity(t *testing.T) {
	db, err := Open(t.TempDir(), DurabilityOptions{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, "CREATE TABLE keep (id INT PRIMARY KEY)")
	mustExec(t, db, "INSERT INTO keep (id) VALUES (7)")
	want := db.StateDigest()

	if err := db.ResetFromSnapshot([]byte{0xFE, 0x01, 0x02}, 99); err == nil {
		t.Fatal("malformed snapshot stream accepted")
	}
	if db.StateDigest() != want {
		t.Fatal("failed reset changed state")
	}

	sess := db.NewSession()
	defer sess.Close()
	if _, err := sess.ExecSQL("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.ExecSQL("INSERT INTO keep (id) VALUES (8)"); err != nil {
		t.Fatal(err)
	}
	src := New()
	if _, err := src.ExecSQL("CREATE TABLE other (id INT PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	src.mu.RLock()
	ops, err := src.snapshotOps()
	src.mu.RUnlock()
	if err != nil {
		t.Fatal(err)
	}
	if err := db.ResetFromSnapshot(ops, 100); err == nil {
		t.Fatal("reset succeeded with an open transaction")
	}
	if _, err := sess.ExecSQL("ROLLBACK"); err != nil {
		t.Fatal(err)
	}
	if err := db.ResetFromSnapshot(ops, 100); err != nil {
		t.Fatalf("reset after rollback: %v", err)
	}
	if db.Seq() != 100 {
		t.Fatalf("seq after reset: %d", db.Seq())
	}
	if db.StateDigest() != src.StateDigest() {
		t.Fatal("reset state does not match source")
	}
}

// TestMetaVersionAdvances checks the change detector the follower proxy
// polls: every committed metadata transition bumps it, ordinary writes do
// not.
func TestMetaVersionAdvances(t *testing.T) {
	db, err := Open(t.TempDir(), DurabilityOptions{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	v0 := db.MetaVersion()
	mustExec(t, db, "CREATE TABLE t (id INT PRIMARY KEY)")
	if db.MetaVersion() != v0 {
		t.Fatal("DDL bumped meta version")
	}
	if _, err := db.ExecAutonomousListWithMeta(nil, []byte("m1")); err != nil {
		t.Fatal(err)
	}
	if db.MetaVersion() != v0+1 {
		t.Fatalf("bare blob: version %d, want %d", db.MetaVersion(), v0+1)
	}
	st := mustParse(t, "INSERT INTO t (id) VALUES (1)")
	if _, err := db.ExecWithMeta(st, []byte("m2")); err != nil {
		t.Fatal(err)
	}
	if db.MetaVersion() != v0+2 {
		t.Fatalf("ExecWithMeta: version %d, want %d", db.MetaVersion(), v0+2)
	}
}
