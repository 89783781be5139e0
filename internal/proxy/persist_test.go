package proxy

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/onion"
	"repro/internal/sqldb"
	"repro/internal/store"
	"repro/internal/store/sharded"
	"repro/internal/store/single"
)

// openDurable opens (or reopens) a durable DBMS+proxy pair rooted at dir.
// The previous instance must have been Closed (the data dir is locked);
// Close releases the lock and fsyncs but checkpoints nothing, so the
// on-disk state a reopen recovers from matches a crash at that point.
func openDurable(t *testing.T, dir string) (*sqldb.DB, *Proxy) {
	t.Helper()
	db, err := sqldb.Open(dir, sqldb.DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() }) // double Close is safe
	p, err := New(db, Options{HOMBits: 256, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return db, p
}

func resultString(t *testing.T, p *Proxy, sql string) string {
	t.Helper()
	res, err := p.Execute(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	var sb strings.Builder
	for _, row := range res.Rows {
		for i, v := range row {
			if i > 0 {
				sb.WriteByte('\t')
			}
			sb.WriteString(v.String())
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestProxyRestartRoundTrip is the core durability contract: a proxy
// restarted over the same data dir decrypts everything its predecessor
// stored, remembers every onion adjustment, and keeps encrypting new rows
// under the same keys.
func TestProxyRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db, p := openDurable(t, dir)

	mustExecP(t, p, "CREATE TABLE emp (id INT PRIMARY KEY, name TEXT, salary INT)")
	mustExecP(t, p, "CREATE INDEX emp_salary ON emp (salary)")
	for i := 1; i <= 8; i++ {
		mustExecP(t, p, fmt.Sprintf("INSERT INTO emp (id, name, salary) VALUES (%d, 'n%d', %d)", i, i, i*100))
	}
	// Peel Ord (RND -> OPE) and Eq (RND -> DET) via real queries.
	wantRange := resultString(t, p, "SELECT name FROM emp WHERE salary > 350 ORDER BY salary")
	wantEq := resultString(t, p, "SELECT salary FROM emp WHERE name = 'n3'")
	wantSum := resultString(t, p, "SELECT SUM(salary) FROM emp")
	if st := p.Table("emp").Col("salary").Onions[onion.Ord]; st.Current() != onion.OPE {
		t.Fatalf("salary Ord onion at %s, want OPE", st.Current())
	}

	// Crash: no checkpoint, no graceful flush; reopen from disk.
	db.Close()
	_, p2 := openDurable(t, dir)
	if got := resultString(t, p2, "SELECT name FROM emp WHERE salary > 350 ORDER BY salary"); got != wantRange {
		t.Fatalf("range after restart:\ngot %q\nwant %q", got, wantRange)
	}
	if got := resultString(t, p2, "SELECT salary FROM emp WHERE name = 'n3'"); got != wantEq {
		t.Fatalf("equality after restart:\ngot %q\nwant %q", got, wantEq)
	}
	if got := resultString(t, p2, "SELECT SUM(salary) FROM emp"); got != wantSum {
		t.Fatalf("sum after restart:\ngot %q\nwant %q", got, wantSum)
	}
	// Adjustments were remembered, not redone: the restarted proxy served
	// the range query without stripping anything.
	if n := p2.Stats().OnionAdjustments; n != 0 {
		t.Fatalf("restarted proxy re-adjusted %d onions, want 0", n)
	}
	if st := p2.Table("emp").Col("salary").Onions[onion.Ord]; st.Current() != onion.OPE {
		t.Fatalf("restored salary Ord onion at %s, want OPE", st.Current())
	}
	if st := p2.Table("emp").Col("name").Onions[onion.Eq]; st.Current() != onion.DET {
		t.Fatalf("restored name Eq onion at %s, want DET", st.Current())
	}

	// New rows written by the restarted proxy must interoperate with old
	// ciphertexts: same DET/OPE keys, same row-id sequence.
	mustExecP(t, p2, "INSERT INTO emp (id, name, salary) VALUES (9, 'n9', 150)")
	got := resultString(t, p2, "SELECT id FROM emp WHERE salary < 250 ORDER BY salary")
	if got != "1\n9\n2\n" { // salaries 100, 150, 200
		t.Fatalf("mixed old/new rows misordered: %q", got)
	}
	if got := resultString(t, p2, "SELECT salary FROM emp WHERE name = 'n9'"); got != "150\n" {
		t.Fatalf("equality on new row: %q", got)
	}
}

// TestRestartIndexAtEveryCut: a first use whose list also builds the index
// a CREATE INDEX asked for before the load commits its rows, the index and
// the metadata naming both in one WAL frame per shard. The logs are cut at
// every frame boundary of that commit and reopened. On one store that is
// before or after the frame. On shards the cuts follow the commit's order:
// at cut k < n the first k shards keep their prepared part alone (their
// outcome, written after the decision, is cut) and the others nothing; the
// last shard decides, so only cut n keeps the decision. At every cut the
// index is on every shard or on none, exactly as the recovered metadata
// records it, the onion is deferred exactly when it is not, and equality
// and range answer like the oracle.
func TestRestartIndexAtEveryCut(t *testing.T) {
	opts := sqldb.DurabilityOptions{NoFsync: true, CheckpointBytes: -1}
	const (
		rng = "SELECT id FROM acct WHERE bal BETWEEN 100 AND 500"
		eq  = "SELECT id FROM acct WHERE bal = 137"
	)
	for _, c := range []struct {
		name   string
		shards int // 0: a single store
		stmt   string
		peel   bool // stmt also peels bal's Eq onion to DET
	}{
		{"single/range", 0, rng, false},
		{"single/eq+range", 0, "SELECT id FROM acct WHERE bal != 137 AND bal BETWEEN 100 AND 500", true},
		{"sharded2/range", 2, rng, false},
		{"sharded4/range", 4, rng, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			open := func(dir string) store.Engine {
				var eng store.Engine
				var err error
				if c.shards == 0 {
					eng, err = single.Open(dir, opts)
				} else {
					eng, err = sharded.Open(dir, c.shards, opts)
				}
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { eng.Close() }) //nolint:errcheck // double Close is safe
				return eng
			}
			wals := []string{"wal.log"} // each log, relative to the data dir, in commit order
			if c.shards > 0 {
				wals = nil
				for i := 0; i < c.shards; i++ {
					wals = append(wals, filepath.Join(sharded.ShardDir("", i), "wal.log"))
				}
			}

			dir := t.TempDir()
			eng := open(dir)
			l := newLifecycle(t, eng, Options{DataDir: dir})
			for _, s := range deferredDDL {
				l.both(s)
			}
			l.both("CREATE INDEX acct_bal ON acct (bal)")
			for _, s := range deferredLoad(30, 300) {
				l.both(s)
			}
			before := make([]int64, len(wals))
			for i, w := range wals {
				fi, err := os.Stat(filepath.Join(dir, w))
				if err != nil {
					t.Fatal(err)
				}
				before[i] = fi.Size()
			}
			l.check(c.stmt)
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}

			for cut := 0; cut <= len(wals); cut++ {
				t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
					cdir := copyDir(t, dir)
					for i := range wals {
						size := before[i]
						if i < cut && cut < len(wals) {
							// Keep the prepared part, cut its outcome.
							data, err := os.ReadFile(filepath.Join(cdir, wals[i]))
							if err != nil {
								t.Fatal(err)
							}
							frames, err := sqldb.SplitFrames(data[size:])
							if err != nil || len(frames) != 2 {
								t.Fatalf("shard %d logged %d batches (%v), want its prepared part and its outcome", i, len(frames), err)
							}
							size += int64(len(frames[0]))
						} else if i < cut {
							continue
						}
						if err := os.Truncate(filepath.Join(cdir, wals[i]), size); err != nil {
							t.Fatal(err)
						}
					}
					eng := open(cdir)
					p, err := NewOnEngine(eng, Options{HOMBits: 256, DataDir: cdir})
					if err != nil {
						t.Fatal(err)
					}
					rl := &lifecycle{t: t, p: p, orc: l.orc}
					committed := cut == len(wals)
					cm := p.Table("acct").Col("bal")
					hasIndex := func(db *sqldb.DB, o onion.Onion, ordered bool) bool {
						return slices.ContainsFunc(db.Table(cm.Table.Anon).Indexes(), func(ix sqldb.IndexInfo) bool {
							return ix.Column == cm.onionCol(o) && ix.Ordered == ordered
						})
					}
					indexed := func(o onion.Onion, ordered bool) bool {
						for _, db := range engineDBs(eng) {
							if !hasIndex(db, o, ordered) {
								return false
							}
						}
						return true
					}
					check := func(when string) {
						t.Helper()
						if got, want := indexed(onion.Ord, true), cm.idxOrd; got != want {
							t.Fatalf("%s: Ord index on every shard %v, metadata idxOrd %v", when, got, want)
						}
						if got, want := indexed(onion.Eq, false), cm.idxEq; got != want {
							t.Fatalf("%s: Eq index on every shard %v, metadata idxEq %v", when, got, want)
						}
					}
					for i, db := range engineDBs(eng) {
						if hasIndex(db, onion.Ord, true) != committed {
							t.Fatalf("shard %d holds the Ord index %v at cut %d", i, hasIndex(db, onion.Ord, true), cut)
						}
					}
					check("recovered")
					if cm.Onions[onion.Ord].Deferred == committed || cm.idxOrd != committed || (c.peel && cm.idxEq != committed) {
						t.Fatalf("cut %d of %d: Ord deferred %v, idxOrd %v, idxEq %v", cut, len(wals),
							cm.Onions[onion.Ord].Deferred, cm.idxOrd, cm.idxEq)
					}
					rl.check(rng)
					rl.check(eq)
					check("after the redo")
					if !cm.idxOrd || !cm.idxEq {
						t.Fatalf("after equality and range: idxOrd %v, idxEq %v; want both built", cm.idxOrd, cm.idxEq)
					}
				})
			}
		})
	}
}

// copyDir copies a closed data directory to a fresh one, as a crash
// would leave it.
func copyDir(t *testing.T, src string) string {
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

// engineDBs returns the databases under a single or sharded engine.
func engineDBs(eng store.Engine) []*sqldb.DB {
	if e, ok := eng.(*sharded.Engine); ok {
		dbs := make([]*sqldb.DB, e.Shards())
		for i := range dbs {
			dbs[i] = e.Shard(i)
		}
		return dbs
	}
	return []*sqldb.DB{eng.(*single.Engine).DB()}
}

// TestProxyRestartStaleness: HOM increments mark sibling onions stale in
// the same WAL batch; a restarted proxy must resync before serving an
// equality over the incremented column.
func TestProxyRestartStaleness(t *testing.T) {
	dir := t.TempDir()
	db, p := openDurable(t, dir)
	mustExecP(t, p, "CREATE TABLE acct (id INT PRIMARY KEY, bal INT)")
	mustExecP(t, p, "INSERT INTO acct (id, bal) VALUES (1, 100), (2, 200)")
	// Exercise the Add onion, then increment: Eq/Ord are now stale.
	mustExecP(t, p, "SELECT SUM(bal) FROM acct")
	mustExecP(t, p, "UPDATE acct SET bal = bal + 50 WHERE id = 1")

	db.Close()
	_, p2 := openDurable(t, dir)
	if !p2.Table("acct").Col("bal").Stale[onion.Eq] {
		t.Fatal("staleness flag lost across restart")
	}
	if got := resultString(t, p2, "SELECT id FROM acct WHERE bal = 150"); got != "1\n" {
		t.Fatalf("stale equality after restart: %q, want row 1", got)
	}
	if p2.Stats().Resyncs != 1 {
		t.Fatalf("resyncs = %d, want 1", p2.Stats().Resyncs)
	}
}

// TestProxyRestartJoin: join adjustment re-keys columns to a shared
// JOIN-ADJ key; the restarted proxy re-derives the same effective keys by
// reference and joins without further adjustment.
func TestProxyRestartJoin(t *testing.T) {
	dir := t.TempDir()
	db, p := openDurable(t, dir)
	mustExecP(t, p, "CREATE TABLE u (uid INT, uname TEXT)")
	mustExecP(t, p, "CREATE TABLE m (author INT, body TEXT)")
	mustExecP(t, p, "INSERT INTO u (uid, uname) VALUES (1, 'alice'), (2, 'bob')")
	mustExecP(t, p, "INSERT INTO m (author, body) VALUES (2, 'hi'), (2, 'again'), (1, 'yo')")
	want := resultString(t, p, "SELECT uname, body FROM u, m WHERE uid = author AND uid = 2")
	if p.Stats().OnionAdjustments == 0 {
		t.Fatal("join did not adjust (test setup broken)")
	}

	db.Close()
	_, p2 := openDurable(t, dir)
	if got := resultString(t, p2, "SELECT uname, body FROM u, m WHERE uid = author AND uid = 2"); got != want {
		t.Fatalf("join after restart:\ngot %q\nwant %q", got, want)
	}
	if n := p2.Stats().OnionAdjustments; n != 0 {
		t.Fatalf("restarted proxy re-adjusted %d onions for a converged join, want 0", n)
	}
	// New rows on both sides still join against old ones.
	mustExecP(t, p2, "INSERT INTO m (author, body) VALUES (1, 'new')")
	got := resultString(t, p2, "SELECT body FROM u, m WHERE uid = author AND uname = 'alice'")
	if got != "yo\nnew\n" && got != "new\nyo\n" {
		t.Fatalf("join with post-restart rows: %q", got)
	}
}

// TestProxyKeyFileRequired: database state without its key file must be
// rejected loudly, not silently re-keyed (which would orphan all data).
func TestProxyKeyFileRequired(t *testing.T) {
	dir := t.TempDir()
	db, p := openDurable(t, dir)
	mustExecP(t, p, "CREATE TABLE t (a INT)")
	mustExecP(t, p, "INSERT INTO t (a) VALUES (1)")
	db.Close()
	if err := os.Remove(filepath.Join(dir, "proxy-keys.json")); err != nil {
		t.Fatal(err)
	}
	db2, err := sqldb.Open(dir, sqldb.DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if _, err := New(db2, Options{HOMBits: 256, DataDir: dir}); err == nil {
		t.Fatal("proxy opened database state without its key file")
	}
}

// TestProxyRestartAfterCheckpoint: the sealed metadata blob must survive
// WAL truncation by riding the snapshot.
func TestProxyRestartAfterCheckpoint(t *testing.T) {
	dir := t.TempDir()
	db, p := openDurable(t, dir)
	mustExecP(t, p, "CREATE TABLE t (a INT, b TEXT)")
	mustExecP(t, p, "INSERT INTO t (a, b) VALUES (7, 'x')")
	mustExecP(t, p, "SELECT a FROM t WHERE a > 0") // peel Ord
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db.Close()
	_, p2 := openDurable(t, dir)
	if got := resultString(t, p2, "SELECT b FROM t WHERE a > 0"); got != "x\n" {
		t.Fatalf("post-checkpoint restart: %q", got)
	}
	if n := p2.Stats().OnionAdjustments; n != 0 {
		t.Fatalf("adjustments after checkpointed restart = %d, want 0", n)
	}
}

// TestProxyRestartParentDataDir opens a data directory written by the
// parent of PR 16 (commit bfea0c0) — OPE ciphertexts from the sampler that
// still spun at the top of the tree, Paillier ciphertexts with textbook r^n,
// RND layers keyed per call — and replays testdata/parent_answers.txt: the
// statements after "> " and, below each, what the parent itself answered on
// a copy of the same directory. Range, ORDER BY, MIN/MAX, SUM and increments
// run over the parent's rows alone and then mixed with rows this build
// inserts; the age column's onions are still at RND, so its range query
// strips layers the parent wrapped.
//
// In the fixture: emp(id, name, salary, bonus, age) with ids 1-10 (salary
// (id-3)·100), two rows at the ends of the OPE domain, salary's Ord and
// name's Eq already peeled, one increment applied; 256-bit Paillier key.
func TestProxyRestartParentDataDir(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"wal.log", "proxy-keys.json"} {
		b, err := os.ReadFile(filepath.Join("testdata", "parent_datadir", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	answers, err := os.ReadFile(filepath.Join("testdata", "parent_answers.txt"))
	if err != nil {
		t.Fatal(err)
	}
	_, p := openDurable(t, dir)
	if p.Table("emp") == nil {
		t.Fatal("the parent's metadata did not restore table emp")
	}
	// A statement line starts with "> "; result lines never do.
	blocks := strings.Split("\n"+strings.TrimSuffix(string(answers), "\n"), "\n> ")[1:]
	if len(blocks) < 20 {
		t.Fatalf("%d statements in the fixture, want the full script", len(blocks))
	}
	for _, block := range blocks {
		stmt, want, _ := strings.Cut(block+"\n", "\n")
		if got := resultString(t, p, stmt); got != want {
			t.Errorf("%s\ngot:\n%swant (the parent's answer):\n%s", stmt, got, want)
		}
	}
}

func mustExecP(t *testing.T, p *Proxy, sql string) *sqldb.Result {
	t.Helper()
	res, err := p.Execute(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return res
}

// TestTransitionFailureReverts drives each metadata transition that commits
// with a server statement into a failing statement. A plain error leaves
// the proxy's metadata as it was and a retry succeeds; a durability error
// means the statement applied, so the change is kept. Either way the
// answers afterwards match the plaintext oracle.
func TestTransitionFailureReverts(t *testing.T) {
	joined := func(p *Proxy) string {
		return onionState(p, onion.JAdj, [][2]string{{"acct", "holder"}, {"owner", "oid"}})
	}
	cases := []struct {
		name   string
		plan   OnionPlan
		setup  []string // run on proxy and oracle before the fault
		stmt   string   // the statement whose transition fails
		failAt int      // which blob-carrying statement of stmt fails
		state  func(p *Proxy) string
		then   []string // run on both once stmt has applied
		query  string   // checked against the oracle at the end
	}{
		{name: "create table", stmt: "CREATE TABLE extra (id INT PRIMARY KEY, v TEXT)", failAt: 1,
			state: func(p *Proxy) string { return fmt.Sprint(p.Table("extra") != nil) },
			then:  []string{"INSERT INTO extra (id, v) VALUES (1, 'a'), (2, 'b')"},
			query: "SELECT id FROM extra WHERE v = 'b'"},
		{name: "drop table", stmt: "DROP TABLE owner", failAt: 1,
			state: func(p *Proxy) string { return fmt.Sprint(p.Table("owner") != nil) },
			then: []string{"CREATE TABLE owner (oid INT PRIMARY KEY, name TEXT)",
				"INSERT INTO owner (oid, name) VALUES (1, 'new')"},
			query: "SELECT name FROM owner WHERE oid = 1"},
		// The index request and the build commit as one list.
		{name: "index", setup: []string{"SELECT id FROM acct WHERE memo = 'kw01 kw11'"},
			stmt: "CREATE INDEX memo_idx ON acct (memo)", failAt: 1,
			state: func(p *Proxy) string { return fmt.Sprint(p.Table("acct").Col("memo").idxEq) },
			query: "SELECT id FROM acct WHERE memo = 'kw02 kw12'"},
		// Every onion of memo is still at RND: the request is the only
		// change, and its blob commits alone, as the empty statement list.
		{name: "index before exposure", stmt: "CREATE UNIQUE INDEX memo_idx ON acct (memo) USING BTREE", failAt: 1,
			state: func(p *Proxy) string {
				cm := p.Table("acct").Col("memo")
				return fmt.Sprint(cm.wantIndex, cm.wantUnique, cm.wantUsing, cm.idxEq)
			},
			then:  []string{"SELECT id FROM acct WHERE memo = 'kw01 kw11'"},
			query: "SELECT id FROM acct WHERE memo = 'kw02 kw12'"},
		{name: "rnd peel", stmt: "SELECT id FROM acct WHERE memo = 'kw01 kw11'", failAt: 1,
			state: func(p *Proxy) string { return fmt.Sprint(p.Table("acct").Col("memo").Onions[onion.Eq].Cur) },
			query: "SELECT id FROM acct WHERE memo = 'kw03 kw13'"},
		// The plan keeps both JAdj onions present from the first row: two
		// peels and owner.oid's re-key onto acct.holder's key, in one batch.
		{name: "join rekey", plan: OnionPlan{"acct.holder": {onion.Eq, onion.JAdj}, "owner.oid": {onion.Eq, onion.JAdj}},
			stmt: "SELECT a.id, o.name FROM acct a JOIN owner o ON a.holder = o.oid", failAt: 1,
			state: joined,
			query: "SELECT o.name, a.bal FROM owner o JOIN acct a ON o.oid = a.holder"},
		// Both JAdj onions deferred: acct.holder is written at JOIN under
		// its own key and owner.oid under acct.holder's, in one batch.
		// Both layers, key references and Deferred bits move together.
		{name: "first-use join", stmt: "SELECT a.id, o.name FROM acct a JOIN owner o ON a.holder = o.oid", failAt: 1,
			state: joined,
			query: "SELECT o.name, a.bal FROM owner o JOIN acct a ON o.oid = a.holder"},
		// One column's Eq onion peeled and its deferred Ord onion written at
		// OPE, in one batch.
		{name: "eq + first-use ord", stmt: "SELECT id FROM acct WHERE bal != 17 AND bal < 100", failAt: 1,
			state: func(p *Proxy) string {
				return onionState(p, onion.Eq, [][2]string{{"acct", "bal"}}) + onionState(p, onion.Ord, [][2]string{{"acct", "bal"}})
			},
			query: "SELECT id FROM acct WHERE bal > 50 AND bal != 137"},
	}
	for _, tc := range cases {
		for _, fault := range []error{errInjected, &sqldb.DurabilityError{Err: errInjected}} {
			_, durable := fault.(*sqldb.DurabilityError)
			t.Run(fmt.Sprintf("%s/durable=%v", tc.name, durable), func(t *testing.T) {
				// Persistent, so every transition has a blob to commit
				// (a proxy without a data directory commits no bare one).
				dir := t.TempDir()
				db, err := sqldb.Open(dir, sqldb.DurabilityOptions{})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { db.Close() })
				fe := &faultyEngine{Engine: single.New(db)}
				l := newLifecycle(t, fe, Options{Plan: tc.plan, DataDir: dir})
				l.load(5, 20)
				for _, s := range tc.setup {
					l.both(s)
				}
				before := tc.state(l.p)
				fe.metaWrites, fe.metaFailAt, fe.metaFault = 0, tc.failAt, fault
				_, err = l.p.Execute(tc.stmt)
				fe.metaFailAt = 0
				var de *sqldb.DurabilityError
				switch after := tc.state(l.p); {
				case !errors.Is(err, errInjected) || errors.As(err, &de) != durable:
					t.Fatalf("%s: err = %v, want the injected fault", tc.stmt, err)
				case durable && after == before:
					t.Fatalf("an applied statement's transition was undone: state %s", after)
				case !durable && after != before:
					t.Fatalf("a failed statement's transition was kept: state %s, was %s", after, before)
				}
				if durable {
					if _, err := l.orc.ExecSQL(tc.stmt); err != nil {
						t.Fatal(err)
					}
				} else {
					l.both(tc.stmt)
				}
				for _, s := range tc.then {
					l.both(s)
				}
				l.check(tc.query)
			})
		}
	}
}
