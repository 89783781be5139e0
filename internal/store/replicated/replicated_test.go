package replicated_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

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
	eng, err := sharded.Open(t.TempDir(), shards, dopts)
	if err != nil {
		t.Fatal(err)
	}
	p, err := replicated.WrapPrimary(eng, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

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

	f, err := replicated.OpenFollower(t.TempDir(), p.Addr(), dopts)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
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
}

func TestOpenFollowerBadPrimary(t *testing.T) {
	if _, err := replicated.OpenFollower(t.TempDir(), "127.0.0.1:1", dopts); err == nil {
		t.Fatal("OpenFollower against a dead address succeeded")
	}
}
