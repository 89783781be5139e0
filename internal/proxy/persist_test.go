package proxy

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/onion"
	"repro/internal/sqldb"
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
