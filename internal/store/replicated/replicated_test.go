package replicated_test

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/fsutil/crashfs"
	"repro/internal/sqldb"
	"repro/internal/store"
	"repro/internal/store/replicated"
	"repro/internal/store/sharded"
	"repro/internal/store/single"
)

var dopts = sqldb.DurabilityOptions{CheckpointBytes: -1, NoFsync: true}

// waitFollower blocks until the follower has replayed everything the
// primary engine has committed on every shard.
func waitFollower(t *testing.T, p *replicated.PrimaryEngine, f *replicated.FollowerEngine, shards int) {
	t.Helper()
	seqs := make([]uint64, shards)
	for i := range seqs {
		seqs[i] = p.Replication().ShardSeq(i)
	}
	if err := f.WaitCaughtUp(seqs, 20*time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestFollowerReadOnlySingle(t *testing.T) {
	eng, err := single.Open(t.TempDir(), dopts)
	if err != nil {
		t.Fatal(err)
	}
	p, err := replicated.WrapPrimary(eng, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	if _, err := p.ExecSQL("CREATE TABLE users (id INT PRIMARY KEY, name TEXT)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := p.ExecSQL("INSERT INTO users (id, name) VALUES (?, ?)",
			sqldb.Int(int64(i)), sqldb.Text(fmt.Sprintf("user-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.ExecAutonomousListWithMeta(nil, []byte("sealed-proxy-metadata-v1")); err != nil {
		t.Fatal(err)
	}

	f, err := replicated.OpenFollower(t.TempDir(), p.Addr(), dopts)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	waitFollower(t, p, f, 1)

	// Reads execute locally and match the primary.
	res, err := f.ExecSQL("SELECT COUNT(*) FROM users")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 20 {
		t.Fatalf("follower count = %v, want 20", res.Rows[0][0])
	}

	// Every write shape is refused with a redirect naming the primary.
	writes := []string{
		"INSERT INTO users (id, name) VALUES (99, 'nope')",
		"UPDATE users SET name = 'x' WHERE id = 1",
		"DELETE FROM users WHERE id = 1",
		"CREATE TABLE other (id INT PRIMARY KEY)",
		"DROP TABLE users",
		"BEGIN",
	}
	for _, w := range writes {
		_, err := f.ExecSQL(w)
		var ro *store.ReadOnlyError
		if !errors.As(err, &ro) {
			t.Fatalf("%s: got %v, want ReadOnlyError", w, err)
		}
		if ro.Primary != p.Addr() {
			t.Fatalf("%s: redirect names %q, want %q", w, ro.Primary, p.Addr())
		}
	}
	if _, err := f.ExecAutonomousListWithMeta(nil, []byte("x")); err == nil {
		t.Fatal("a bare blob on the follower succeeded")
	}

	// Connections are read-only too.
	conn := f.NewConn()
	defer conn.Close()
	if _, err := conn.ExecSQL("SELECT id FROM users WHERE id = 3"); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.ExecSQL("INSERT INTO users (id, name) VALUES (98, 'no')"); err == nil {
		t.Fatal("write through follower conn succeeded")
	}

	// Replicated metadata is visible, and the generation counter moved.
	if got := string(f.Meta()); got != "sealed-proxy-metadata-v1" {
		t.Fatalf("follower meta = %q", got)
	}
	if f.MetaGeneration() == 0 {
		t.Fatal("MetaGeneration did not advance")
	}
	if f.PrimaryAddr() != p.Addr() {
		t.Fatalf("PrimaryAddr = %q, want %q", f.PrimaryAddr(), p.Addr())
	}

	// The primary's Stats surface per-follower lag entries.
	stats := p.Stats()
	if len(stats.Followers) != 1 {
		t.Fatalf("primary sees %d followers, want 1", len(stats.Followers))
	}
	if stats.Followers[0].AckedSeq > stats.Followers[0].PrimarySeq {
		t.Fatalf("acked %d beyond primary %d", stats.Followers[0].AckedSeq, stats.Followers[0].PrimarySeq)
	}
}

func TestFollowerSharded(t *testing.T) {
	const shards = 2
	pdir, fdir := t.TempDir(), t.TempDir()
	eng, err := sharded.Open(pdir, shards, dopts)
	if err != nil {
		t.Fatal(err)
	}
	p, err := replicated.WrapPrimary(eng, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	if _, err := p.ExecSQL("CREATE TABLE kv (k INT PRIMARY KEY, v TEXT)"); err != nil {
		t.Fatal(err)
	}
	// Enough rows to land on both shards.
	for i := 0; i < 40; i++ {
		if _, err := p.ExecSQL("INSERT INTO kv (k, v) VALUES (?, ?)",
			sqldb.Int(int64(i)), sqldb.Text(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Metadata on a sharded engine travels in a sequence envelope; the
	// follower must unwrap it exactly like sharded recovery does.
	if _, err := p.ExecAutonomousListWithMeta(nil, []byte("sharded-meta-A")); err != nil {
		t.Fatal(err)
	}
	if _, err := p.ExecAutonomousListWithMeta(nil, []byte("sharded-meta-B")); err != nil {
		t.Fatal(err)
	}

	f, err := replicated.OpenFollower(fdir, p.Addr(), dopts)
	if err != nil {
		t.Fatal(err)
	}
	if f.Shards() != shards {
		t.Fatalf("follower has %d shards, want %d", f.Shards(), shards)
	}
	waitFollower(t, p, f, shards)

	res, err := f.ExecSQL("SELECT COUNT(*) FROM kv")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 40 {
		t.Fatalf("follower count = %v, want 40", res.Rows[0][0])
	}
	pr, err := p.ExecSQL("SELECT k, v FROM kv WHERE k < 1000 ORDER BY k")
	if err != nil {
		t.Fatal(err)
	}
	fr, err := f.ExecSQL("SELECT k, v FROM kv WHERE k < 1000 ORDER BY k")
	if err != nil {
		t.Fatal(err)
	}
	if len(pr.Rows) != len(fr.Rows) {
		t.Fatalf("row counts differ: primary %d follower %d", len(pr.Rows), len(fr.Rows))
	}
	for i := range pr.Rows {
		if pr.Rows[i][1].S != fr.Rows[i][1].S {
			t.Fatalf("row %d: %q vs %q", i, pr.Rows[i][1].S, fr.Rows[i][1].S)
		}
	}
	if got := string(f.Meta()); got != "sharded-meta-B" {
		t.Fatalf("follower meta = %q, want sharded-meta-B", got)
	}
	if seq := f.ReplicaSeq(); seq == 0 {
		t.Fatal("ReplicaSeq is 0 after replication")
	}

	// A write that spans both shards, held between shard 0's prepared
	// batch and the decider's (shard 1's) batch: the follower holds the
	// part, unpublished, across a checkpoint and a restart, and publishes
	// it when its stream carries the outcome.
	eng.Close()
	p.Close()
	f.Close()
	rec := crashfs.Install(t)
	release := func() {}
	if eng, err = sharded.Open(pdir, shards, dopts); err != nil {
		t.Fatal(err)
	}
	if p, err = replicated.WrapPrimary(eng, "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if f, err = replicated.OpenFollower(fdir, p.Addr(), dopts); err != nil {
		t.Fatal(err)
	}
	defer func() { f.Close() }()
	// A test failure must not leave the write held, which would stall the
	// closes above.
	defer func() { release() }()
	connected := func(f *replicated.FollowerEngine) {
		t.Helper()
		// A stream that connects while a part is held waits for the
		// outcome; the held cases need shard 0's stream up.
		for i := 0; i < shards; i++ {
			for deadline := time.Now().Add(20 * time.Second); f.Follower(i).Connects() == 0; {
				if time.Now().After(deadline) {
					t.Fatalf("follower shard %d never connected", i)
				}
				time.Sleep(time.Millisecond)
			}
		}
		waitFollower(t, p, f, shards)
	}
	connected(f)
	held := func(sql string) (resume func()) {
		t.Helper()
		seq0 := p.Replication().ShardSeq(0)
		_, release = rec.Hold(filepath.Join(sharded.ShardDir(pdir, 1), "wal.log"))
		done := make(chan error, 1)
		go func() {
			_, err := p.ExecSQL(sql)
			done <- err
		}()
		if err := f.Follower(0).WaitCaughtUp(seq0+1, 20*time.Second); err != nil {
			t.Fatal(err)
		}
		if n := len(f.Shard(0).Unresolved()); n != 1 {
			t.Fatalf("the follower's shard 0 holds %d prepared parts, want 1", n)
		}
		return func() {
			release()
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}
	}
	digestsMatch := func(f *replicated.FollowerEngine) {
		t.Helper()
		waitFollower(t, p, f, shards)
		for i := 0; i < shards; i++ {
			if got, want := f.Shard(i).StateDigest(), eng.Shard(i).StateDigest(); got != want {
				t.Fatalf("follower shard %d digest %s, primary %s", i, got, want)
			}
		}
	}

	// Restarted between the prepared batch and its outcome.
	rows := func(from int) string {
		sql := "INSERT INTO kv (k, v) VALUES "
		for k := from; k < from+8; k++ {
			if k > from {
				sql += ", "
			}
			sql += fmt.Sprintf("(%d, 'h%d')", k, k)
		}
		return sql
	}
	resume := held(rows(100))
	if err := f.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if f, err = replicated.OpenFollower(fdir, p.Addr(), dopts); err != nil {
		t.Fatal(err)
	}
	if n := len(f.Shard(0).Unresolved()); n != 1 {
		t.Fatalf("after a restart the follower's shard 0 holds %d prepared parts, want 1", n)
	}
	if n := mustCount(t, f, "SELECT COUNT(*) FROM kv WHERE k >= 100"); n != 0 {
		t.Fatalf("%d rows of a write not yet decided are visible on the follower", n)
	}
	resume()
	digestsMatch(f)
	if n := mustCount(t, f, "SELECT COUNT(*) FROM kv WHERE k >= 100"); n != 8 {
		t.Fatalf("follower holds %d of the 8 rows after the outcome", n)
	}

	// A catch-up snapshot requested while a part is pending: a new
	// follower of a checkpointed primary waits for the outcome and gets
	// the published part.
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	connected(f)
	resume = held(rows(200))
	late, err := replicated.OpenFollower(t.TempDir(), p.Addr(), dopts)
	if err != nil {
		t.Fatal(err)
	}
	defer late.Close()
	resume()
	digestsMatch(late)
	digestsMatch(f)

	// A follower never decides: a restart keeps no decision its log
	// replayed, so its checkpoints carry none.
	f.Close()
	if f, err = replicated.OpenFollower(fdir, p.Addr(), dopts); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < shards; i++ {
		if ids := f.Shard(i).Decided(); len(ids) != 0 {
			t.Fatalf("a restarted follower's shard %d holds decisions %v", i, ids)
		}
	}
	digestsMatch(f)
}

func mustCount(t *testing.T, f *replicated.FollowerEngine, sql string) int64 {
	t.Helper()
	res, err := f.ExecSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	return res.Rows[0][0].I
}

func TestOpenFollowerBadPrimary(t *testing.T) {
	if _, err := replicated.OpenFollower(t.TempDir(), "127.0.0.1:1", dopts); err == nil {
		t.Fatal("OpenFollower against a dead address succeeded")
	}
}
