package repl_test

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/repl"
	"repro/internal/repl/replfault"
	"repro/internal/sqldb"
	"repro/internal/sqlparser"
)

var dopts = sqldb.DurabilityOptions{CheckpointBytes: -1, NoFsync: true}

func openDB(t *testing.T, dir string) *sqldb.DB {
	t.Helper()
	return openDBOpts(t, dir, dopts)
}

func openDBOpts(t *testing.T, dir string, opts sqldb.DurabilityOptions) *sqldb.DB {
	t.Helper()
	db, err := sqldb.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func exec(t *testing.T, db *sqldb.DB, sql string, params ...sqldb.Value) {
	t.Helper()
	if _, err := db.ExecSQL(sql, params...); err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
}

// workloadStep applies one deterministic step of the property workload:
// a mix of inserts, updates, deletes, metadata commits (standalone and
// statement-attached), transactions and occasional DDL — every commit
// shape the WAL can produce.
func workloadStep(t *testing.T, db *sqldb.DB, rng *rand.Rand, i int) {
	t.Helper()
	switch rng.Intn(10) {
	case 0, 1, 2, 3:
		exec(t, db, "INSERT INTO t (id, v, note) VALUES (?, ?, ?)",
			sqldb.Int(int64(1000+i)), sqldb.Int(rng.Int63n(1000)), sqldb.Text(fmt.Sprintf("row-%d", i)))
	case 4, 5:
		exec(t, db, "UPDATE t SET v = ? WHERE id = ?", sqldb.Int(rng.Int63n(1000)), sqldb.Int(int64(1000+rng.Intn(i+1))))
	case 6:
		exec(t, db, "DELETE FROM t WHERE id = ?", sqldb.Int(int64(1000+rng.Intn(i+1))))
	case 7:
		st, err := sqlparser.Parse("INSERT INTO t (id, v, note) VALUES (?, ?, 'meta-row')")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.ExecWithMeta(st, []byte(fmt.Sprintf("sealed-meta-%d", i)),
			sqldb.Int(int64(100000+i)), sqldb.Int(int64(i))); err != nil {
			t.Fatalf("ExecWithMeta: %v", err)
		}
	case 8:
		if _, err := db.ExecAutonomousListWithMeta(nil, []byte(fmt.Sprintf("standalone-meta-%d", i))); err != nil {
			t.Fatalf("bare blob: %v", err)
		}
	case 9:
		sess := db.NewSession()
		mustSess(t, sess, "BEGIN")
		mustSess(t, sess, fmt.Sprintf("INSERT INTO t (id, v, note) VALUES (%d, %d, 'txn')", 200000+i, i))
		mustSess(t, sess, fmt.Sprintf("INSERT INTO t (id, v, note) VALUES (%d, %d, 'txn')", 300000+i, i))
		mustSess(t, sess, "COMMIT")
		sess.Close()
	}
}

func mustSess(t *testing.T, s *sqldb.Session, sql string) {
	t.Helper()
	if _, err := s.ExecSQL(sql); err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
}

// assertConverged waits for the follower to reach the primary's sequence
// and then requires byte-equal state: digest (schema + rows + indexes +
// meta), the raw meta blob, and identical SELECT results.
func assertConverged(t *testing.T, prim, fol *sqldb.DB, fw *repl.Follower) {
	t.Helper()
	target := prim.Seq()
	if err := fw.WaitCaughtUp(target, 20*time.Second); err != nil {
		t.Fatal(err)
	}
	if got, want := fol.StateDigest(), prim.StateDigest(); got != want {
		t.Fatalf("state digest mismatch:\nfollower %s\nprimary  %s", got, want)
	}
	if got, want := string(fol.Meta()), string(prim.Meta()); got != want {
		t.Fatalf("meta mismatch: follower %q, primary %q", got, want)
	}
	const q = "SELECT id, v, note FROM t WHERE v >= 0 ORDER BY id"
	pr, err := prim.ExecSQL(q)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := fol.ExecSQL(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(pr.Rows) != len(fr.Rows) {
		t.Fatalf("row count mismatch: follower %d, primary %d", len(fr.Rows), len(pr.Rows))
	}
	for i := range pr.Rows {
		for j := range pr.Rows[i] {
			if pr.Rows[i][j].String() != fr.Rows[i][j].String() {
				t.Fatalf("row %d col %d: follower %v, primary %v", i, j, fr.Rows[i][j], pr.Rows[i][j])
			}
		}
	}
}

// TestReplicationFaultSchedule is the fault-schedule property test: a
// 300-step workload of every commit shape runs against a primary while a
// deterministic script tears the stream (connection drops, mid-frame
// truncations, delays) and the test kills and restarts the follower
// process at fixed points — including one primary checkpoint that forces
// the snapshot catch-up path. After the workload the follower must hold
// byte-equal state and serve identical SELECTs.
func TestReplicationFaultSchedule(t *testing.T) {
	const steps = 300
	// The paged arm replays into a follower whose rows live behind a
	// buffer cache smaller than one page, with background auto-checkpoints
	// enabled: stream application, crash-restart resume and the
	// snapshot-resync path all run against the paged layout. Replication
	// addresses rows by slot, so digest equality is layout-independent.
	pagedOpts := sqldb.DurabilityOptions{NoFsync: true, CheckpointBytes: 1 << 16, Paged: true, CacheBytes: 32 << 10}
	cases := []struct {
		name  string
		seed  int64
		fopts sqldb.DurabilityOptions
	}{
		{"seed=1", 1, dopts},
		{"seed=7", 7, dopts},
		{"seed=42", 42, dopts},
		{"seed=7/paged-follower", 7, pagedOpts},
	}
	for _, tc := range cases {
		seed, fopts := tc.seed, tc.fopts
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			prim := openDB(t, t.TempDir())
			defer prim.Close()
			exec(t, prim, "CREATE TABLE t (id INT PRIMARY KEY, v INT, note TEXT)")
			exec(t, prim, "CREATE INDEX t_v ON t (v)")

			p, err := repl.NewPrimary([]*sqldb.DB{prim}, "127.0.0.1:0", 0)
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()

			// Scripted faults at deterministic message boundaries: roughly
			// every 6th message suffers a drop, a mid-frame tear (one byte
			// short, or cut inside the 5-byte header), or a delay.
			var fsteps []replfault.Step
			for msg := 3; msg < steps*2; msg += 3 + rng.Intn(6) {
				var s replfault.Step
				s.AtMessage, s.Shard = msg, -1
				switch rng.Intn(4) {
				case 0:
					s.Action = repl.DropConn
				case 1:
					s.Action, s.Arg = repl.Truncate, -1 // one byte short of a whole frame
				case 2:
					s.Action, s.Arg = repl.Truncate, 3 // tear inside the message header
				case 3:
					s.Action, s.Arg = repl.Delay, 1
				}
				fsteps = append(fsteps, s)
			}
			script := replfault.NewScript(fsteps...)
			p.SetFaultInjector(script)

			folDir := t.TempDir()
			fol := openDBOpts(t, folDir, fopts)
			fw := repl.StartFollower(fol, p.Addr(), 0)

			// The schedule: a kill+restart at 60 and 220 exercises resume
			// from the follower's own recovered WAL; the kill at 90 keeps
			// the follower down across the checkpoint at 100, so its
			// restart at 110 finds its position checkpointed away and MUST
			// take the snapshot-resync path. Periodic catch-up waits pace
			// the workload so frames actually stream (and faults actually
			// fire) instead of the whole run collapsing into one snapshot.
			down := false
			for i := 0; i < steps; i++ {
				workloadStep(t, prim, rng, i)
				switch i {
				case 60, 220:
					fw.Close()
					if err := fol.Close(); err != nil {
						t.Fatal(err)
					}
					fol = openDBOpts(t, folDir, fopts)
					fw = repl.StartFollower(fol, p.Addr(), 0)
				case 90:
					fw.Close()
					if err := fol.Close(); err != nil {
						t.Fatal(err)
					}
					down = true
				case 100:
					// Checkpoint discards the log tail: the downed
					// follower's position now requires the snapshot path.
					if err := prim.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				case 110:
					fol = openDBOpts(t, folDir, fopts)
					fw = repl.StartFollower(fol, p.Addr(), 0)
					down = false
				}
				if !down && i%25 == 24 {
					if err := fw.WaitCaughtUp(prim.Seq(), 20*time.Second); err != nil {
						t.Fatal(err)
					}
				}
			}
			defer fw.Close()
			defer fol.Close()
			assertConverged(t, prim, fol, fw)
			if fopts.Paged {
				if !fol.Paged() {
					t.Fatal("paged arm ran a resident follower")
				}
				if cs := fol.Stats().Cache; cs.Misses == 0 {
					t.Fatalf("paged follower never faulted a page: %+v", cs)
				}
			}
			if script.Messages() < steps/2 {
				t.Fatalf("fault script observed only %d messages — stream not exercised", script.Messages())
			}
			if len(script.Journal()) == 0 {
				t.Fatal("no scripted fault fired")
			}
			t.Logf("schedule fired %d faults over %d messages; last follower incarnation reconnected %d times",
				len(script.Journal()), script.Messages(), fw.Connects())
		})
	}
}

// TestTornStreamEveryBoundary sweeps a truncation across *every* message
// boundary of a fixed workload, cutting both inside the message header
// and one byte short of the full frame. Whatever the cut point, the
// follower must never half-apply a cohort and must converge byte-equal
// after reconnecting.
func TestTornStreamEveryBoundary(t *testing.T) {
	const workloadSteps = 10
	for _, cut := range []struct {
		name string
		arg  int
	}{
		{"header", 3},    // tear inside the 5-byte message header
		{"lastbyte", -1}, // one byte short of a complete frame
		{"firstbyte", 1}, // almost nothing arrives
	} {
		for boundary := 1; boundary <= workloadSteps+2; boundary++ {
			boundary := boundary
			t.Run(fmt.Sprintf("%s/msg%d", cut.name, boundary), func(t *testing.T) {
				prim := openDB(t, t.TempDir())
				defer prim.Close()
				exec(t, prim, "CREATE TABLE t (id INT PRIMARY KEY, v INT, note TEXT)")

				p, err := repl.NewPrimary([]*sqldb.DB{prim}, "127.0.0.1:0", 0)
				if err != nil {
					t.Fatal(err)
				}
				defer p.Close()
				script := replfault.NewScript(replfault.Step{
					AtMessage: boundary, Shard: -1, Action: repl.Truncate, Arg: cut.arg,
				})
				p.SetFaultInjector(script)

				fol := openDB(t, t.TempDir())
				defer fol.Close()
				fw := repl.StartFollower(fol, p.Addr(), 0)
				defer fw.Close()

				rng := rand.New(rand.NewSource(int64(boundary)))
				for i := 0; i < workloadSteps; i++ {
					workloadStep(t, prim, rng, i)
					// Pace the workload against replication so every cut
					// point lands on a live stream, not a post-hoc batch.
					if err := fw.WaitCaughtUp(prim.Seq(), 20*time.Second); err != nil {
						t.Fatal(err)
					}
				}
				assertConverged(t, prim, fol, fw)
				if boundary <= script.Messages() && len(script.Journal()) != 1 {
					t.Fatalf("boundary %d within %d messages but %d faults fired",
						boundary, script.Messages(), len(script.Journal()))
				}
			})
		}
	}
}

// TestFollowerBoundedStaleness: the follower's visible replay sequence
// must never move backwards — across torn streams, reconnects, and a
// snapshot resync forced by a primary checkpoint.
func TestFollowerBoundedStaleness(t *testing.T) {
	prim := openDB(t, t.TempDir())
	defer prim.Close()
	exec(t, prim, "CREATE TABLE t (id INT PRIMARY KEY, v INT, note TEXT)")

	p, err := repl.NewPrimary([]*sqldb.DB{prim}, "127.0.0.1:0", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	// Drop the connection every few messages to force constant reconnects.
	var fsteps []replfault.Step
	for msg := 4; msg < 400; msg += 5 {
		fsteps = append(fsteps, replfault.Step{AtMessage: msg, Shard: -1, Action: repl.DropConn})
	}
	p.SetFaultInjector(replfault.NewScript(fsteps...))

	fol := openDB(t, t.TempDir())
	defer fol.Close()
	fw := repl.StartFollower(fol, p.Addr(), 0)
	defer fw.Close()

	// Sample the replay sequence concurrently with the workload.
	var stop int32
	violation := make(chan string, 1)
	go func() {
		var last uint64
		for atomic.LoadInt32(&stop) == 0 {
			s := fw.Seq()
			if s < last {
				select {
				case violation <- fmt.Sprintf("replay sequence went backwards: %d after %d", s, last):
				default:
				}
				return
			}
			last = s
			time.Sleep(200 * time.Microsecond)
		}
	}()

	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 150; i++ {
		workloadStep(t, prim, rng, i)
		if i == 75 {
			// Checkpoint so at least one reconnect is served by snapshot
			// resync — the path that rewrites the whole local state.
			if err := prim.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		// Pace against replication so the stream is live (and the scripted
		// drops actually hit it) instead of one post-hoc snapshot.
		if i%10 == 9 {
			if err := fw.WaitCaughtUp(prim.Seq(), 20*time.Second); err != nil {
				t.Fatal(err)
			}
		}
	}
	assertConverged(t, prim, fol, fw)
	atomic.StoreInt32(&stop, 1)
	select {
	case v := <-violation:
		t.Fatal(v)
	default:
	}
	if fw.Connects() < 2 {
		t.Fatalf("expected reconnects, got %d connects", fw.Connects())
	}
}

// TestReplicationKillRestartMidStream is the CI smoke: a follower dies
// abruptly mid-stream (its process state vanishes; only its local disk
// survives, exactly what kill -9 leaves), restarts from local recovery,
// and catches up to byte-equal state.
func TestReplicationKillRestartMidStream(t *testing.T) {
	prim := openDB(t, t.TempDir())
	defer prim.Close()
	exec(t, prim, "CREATE TABLE t (id INT PRIMARY KEY, v INT, note TEXT)")

	p, err := repl.NewPrimary([]*sqldb.DB{prim}, "127.0.0.1:0", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	folDir := t.TempDir()
	fol := openDB(t, folDir)
	fw := repl.StartFollower(fol, p.Addr(), 0)

	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		workloadStep(t, prim, rng, i)
	}
	// "kill -9": the stream and the process go away mid-flight; the
	// on-disk bytes are whatever the last local flush wrote (Close here
	// adds no WAL content — every applied frame was already flushed).
	fw.Close()
	if err := fol.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 100; i < 200; i++ {
		workloadStep(t, prim, rng, i)
	}
	fol = openDB(t, folDir)
	defer fol.Close()
	fw = repl.StartFollower(fol, p.Addr(), 0)
	defer fw.Close()
	assertConverged(t, prim, fol, fw)

	// Lag must be visible (and zero once converged) through FollowerStats.
	stats := p.FollowerStats()
	if len(stats) != 1 {
		t.Fatalf("FollowerStats: %d entries", len(stats))
	}
	if stats[0].PrimarySeq < stats[0].AckedSeq {
		t.Fatalf("acked %d beyond primary %d", stats[0].AckedSeq, stats[0].PrimarySeq)
	}
}

// TestProbe checks the topology handshake.
func TestProbe(t *testing.T) {
	prim := openDB(t, filepath.Join(t.TempDir(), "p"))
	defer prim.Close()
	p, err := repl.NewPrimary([]*sqldb.DB{prim}, "127.0.0.1:0", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	shards, flags, err := repl.Probe(p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if shards != 1 || flags != 0 {
		t.Fatalf("probe: shards=%d flags=%d", shards, flags)
	}
	if !strings.Contains(p.Addr(), ":") {
		t.Fatalf("odd address %q", p.Addr())
	}
}
