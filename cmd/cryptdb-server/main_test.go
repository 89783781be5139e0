package main

import (
	"bufio"
	"fmt"
	"log"
	"net"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/proxy"
	"repro/internal/sqldb"
	"repro/internal/sqlparser"
	"repro/internal/store/sharded"
)

// TestServeEndToEnd drives the line protocol over a real TCP connection.
func TestServeEndToEnd(t *testing.T) {
	db := sqldb.New()
	p, err := proxy.New(db, proxy.Options{HOMBits: 256})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		serve(conn, p)
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	send := func(sql string) []string {
		if _, err := fmt.Fprintf(conn, "%s\n", sql); err != nil {
			t.Fatal(err)
		}
		var lines []string
		for {
			line, err := r.ReadString('\n')
			if err != nil {
				t.Fatal(err)
			}
			line = strings.TrimSpace(line)
			lines = append(lines, line)
			if strings.HasPrefix(line, "OK") || strings.HasPrefix(line, "ERR") {
				return lines
			}
		}
	}

	if got := send("CREATE TABLE t (a INT, b TEXT)"); got[0] != "OK 0" {
		t.Fatalf("create: %v", got)
	}
	if got := send("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')"); got[0] != "OK 1" && got[0] != "OK 2" {
		t.Fatalf("insert: %v", got)
	}
	got := send("SELECT a, b FROM t WHERE b = 'y'")
	if len(got) != 2 || got[0] != "ROW 2\ty" || got[1] != "OK 1" {
		t.Fatalf("select: %v", got)
	}
	if got := send("SELECT broken FROM nosuch"); !strings.HasPrefix(got[0], "ERR") {
		t.Fatalf("error path: %v", got)
	}
	// The server's DBMS never sees plaintext.
	for _, tn := range db.TableNames() {
		res, err := db.ExecSQL("SELECT * FROM " + tn)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range res.Rows {
			for _, v := range row {
				if v.Kind == sqldb.KindText && (v.S == "x" || v.S == "y") {
					t.Fatalf("plaintext at server: %v", v)
				}
			}
		}
	}
}

// TestServeReportsScannerError sends a line over the 1 MiB scan buffer; the
// server must answer with ERR instead of silently closing the connection.
func TestServeReportsScannerError(t *testing.T) {
	p, err := proxy.New(sqldb.New(), proxy.Options{HOMBits: 256})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		serve(conn, p)
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	huge := make([]byte, 1<<20+64) // one line, just over the buffer
	for i := range huge {
		huge[i] = 'x'
	}
	huge[len(huge)-1] = '\n'
	if _, err := conn.Write(huge); err != nil {
		t.Fatal(err)
	}
	line, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		t.Fatalf("connection closed without a response: %v", err)
	}
	if !strings.HasPrefix(line, "ERR") {
		t.Fatalf("got %q, want ERR response", line)
	}
}

// sendLine issues one statement and reads through the OK/ERR terminator.
func sendLine(t *testing.T, conn net.Conn, r *bufio.Reader, sql string) []string {
	t.Helper()
	if _, err := fmt.Fprintf(conn, "%s\n", sql); err != nil {
		t.Fatal(err)
	}
	var lines []string
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("reading response to %q: %v", sql, err)
		}
		line = strings.TrimSpace(line)
		lines = append(lines, line)
		if strings.HasPrefix(line, "OK") || strings.HasPrefix(line, "ERR") {
			return lines
		}
	}
}

// TestGracefulShutdownDrains: shutdown must stop accepting, let connected
// clients' in-flight work finish, flush the WAL and return. Its log names
// the proxy's counters: two identical SUMs decrypt once and hit the memo
// once.
func TestGracefulShutdownDrains(t *testing.T) {
	var logged strings.Builder
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)

	dir := t.TempDir()
	srv, err := newServer(config{addr: "127.0.0.1:0", dataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	runErr := make(chan error, 1)
	go func() { runErr <- srv.run() }()

	conn, err := net.Dial("tcp", srv.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	sendLine(t, conn, r, "CREATE TABLE t (a INT)")
	sendLine(t, conn, r, "INSERT INTO t (a) VALUES (42)")
	for i := 0; i < 2; i++ {
		if got := sendLine(t, conn, r, "SELECT SUM(a) FROM t"); got[0] != "ROW 42" {
			t.Fatalf("sum: %v", got)
		}
	}

	done := make(chan struct{})
	go func() {
		srv.shutdown()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("shutdown did not complete")
	}
	if err := <-runErr; err != nil {
		t.Fatalf("run returned %v", err)
	}
	if want := "proxy stats: queries=4 ast-cache hits=1 misses=3 hom-memo hits=1 decrypts=1\n"; !strings.Contains(logged.String(), want) {
		t.Fatalf("shutdown log lacks %q:\n%s", want, logged.String())
	}
	// New connections must be refused.
	if c, err := net.DialTimeout("tcp", srv.ln.Addr().String(), time.Second); err == nil {
		c.Close()
		t.Fatal("server accepted a connection after shutdown")
	}
	// And the flushed state must be recoverable.
	db, err := sqldb.Open(dir, sqldb.DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	p, err := proxy.New(db, proxy.Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Execute("SELECT a FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].I != 42 {
		t.Fatalf("state after graceful shutdown: %v", res.Rows)
	}
}

// TestHelperServerProcess is not a test: it is the child body for the
// SIGKILL end-to-end test below, selected via environment variable.
func TestHelperServerProcess(t *testing.T) {
	if os.Getenv("CRYPTDB_SERVER_CHILD") != "1" {
		t.Skip("helper process")
	}
	srv, err := newServer(config{addr: "127.0.0.1:0", dataDir: os.Getenv("CRYPTDB_SERVER_DIR")})
	if err != nil {
		fmt.Fprintf(os.Stderr, "child: %v\n", err)
		os.Exit(1)
	}
	// Hand the dynamically chosen address to the parent.
	fmt.Printf("ADDR %s\n", srv.ln.Addr())
	os.Stdout.Sync()
	srv.run() //nolint:errcheck // killed by the parent
}

// TestServerSurvivesSIGKILL is the acceptance scenario for the durability
// subsystem, end to end and out of process: a real cryptdb-server with a
// data dir is loaded with encrypted rows (including an OPE-adjusted
// column), killed with SIGKILL — no shutdown hooks — restarted, and must
// serve identical SELECT results.
func TestServerSurvivesSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	dir := t.TempDir()

	startChild := func() (*exec.Cmd, net.Conn, *bufio.Reader) {
		cmd := exec.Command(os.Args[0], "-test.run=TestHelperServerProcess")
		cmd.Env = append(os.Environ(), "CRYPTDB_SERVER_CHILD=1", "CRYPTDB_SERVER_DIR="+dir)
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(stdout)
		var addr string
		for sc.Scan() {
			if s, ok := strings.CutPrefix(sc.Text(), "ADDR "); ok {
				addr = s
				break
			}
		}
		if addr == "" {
			cmd.Process.Kill()
			t.Fatal("child never reported its address")
		}
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			cmd.Process.Kill()
			t.Fatal(err)
		}
		return cmd, conn, bufio.NewReader(conn)
	}

	cmd, conn, r := startChild()
	sendLine(t, conn, r, "CREATE TABLE emp (id INT PRIMARY KEY, name TEXT, salary INT)")
	sendLine(t, conn, r, "INSERT INTO emp (id, name, salary) VALUES (1, 'alice', 100), (2, 'bob', 200), (3, 'carol', 300)")
	// Range query peels the Ord onion RND -> OPE before the kill.
	want := sendLine(t, conn, r, "SELECT name FROM emp WHERE salary > 150 ORDER BY salary")
	wantEq := sendLine(t, conn, r, "SELECT salary FROM emp WHERE name = 'bob'")
	conn.Close()

	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	cmd.Wait() //nolint:errcheck // killed: non-zero by design

	cmd2, conn2, r2 := startChild()
	defer func() {
		conn2.Close()
		cmd2.Process.Kill() //nolint:errcheck
		cmd2.Wait()         //nolint:errcheck
	}()
	got := sendLine(t, conn2, r2, "SELECT name FROM emp WHERE salary > 150 ORDER BY salary")
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("after SIGKILL restart:\ngot  %v\nwant %v", got, want)
	}
	gotEq := sendLine(t, conn2, r2, "SELECT salary FROM emp WHERE name = 'bob'")
	if strings.Join(gotEq, "|") != strings.Join(wantEq, "|") {
		t.Fatalf("equality after SIGKILL restart:\ngot  %v\nwant %v", gotEq, wantEq)
	}
	// The restarted server keeps writing under the same keys.
	if got := sendLine(t, conn2, r2, "INSERT INTO emp (id, name, salary) VALUES (4, 'dave', 250)"); got[0] != "OK 1" {
		t.Fatalf("insert after restart: %v", got)
	}
	got = sendLine(t, conn2, r2, "SELECT name FROM emp WHERE salary > 150 ORDER BY salary")
	if want := []string{"ROW bob", "ROW dave", "ROW carol", "OK 3"}; strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("mixed rows after restart:\ngot  %v\nwant %v", got, want)
	}
}

// TestDisconnectMidTxnAutoRollback is the regression test for the stuck
// transaction latch: in the seed, a client that dropped its connection
// inside BEGIN left the single global transaction open forever, wedging
// every other writer. Now the connection's session rolls back on close.
func TestDisconnectMidTxnAutoRollback(t *testing.T) {
	srv, err := newServer(config{addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	runErr := make(chan error, 1)
	go func() { runErr <- srv.run() }()
	defer func() {
		srv.shutdown()
		<-runErr
	}()

	dial := func() (net.Conn, *bufio.Reader) {
		conn, err := net.Dial("tcp", srv.ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		return conn, bufio.NewReader(conn)
	}

	c0, r0 := dial()
	defer c0.Close()
	sendLine(t, c0, r0, "CREATE TABLE t (a INT)")
	sendLine(t, c0, r0, "INSERT INTO t (a) VALUES (1)")

	// Connection drops mid-transaction with a buffered write and a lock.
	c1, r1 := dial()
	sendLine(t, c1, r1, "BEGIN")
	sendLine(t, c1, r1, "INSERT INTO t (a) VALUES (100)")
	sendLine(t, c1, r1, "UPDATE t SET a = 2 WHERE a = 1")
	c1.Close()

	// The buffered write must vanish and the lock must come free. Poll
	// briefly: the server notices the close asynchronously.
	deadline := time.Now().Add(5 * time.Second)
	for {
		got := sendLine(t, c0, r0, "UPDATE t SET a = 3 WHERE a = 1")
		if got[0] == "OK 1" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("lock never released after disconnect: %v", got)
		}
		time.Sleep(20 * time.Millisecond)
	}
	got := sendLine(t, c0, r0, "SELECT COUNT(*) FROM t")
	if len(got) != 2 || got[0] != "ROW 1" {
		t.Fatalf("buffered insert leaked past disconnect: %v", got)
	}

	// And a fresh connection can open its own transaction immediately —
	// the seed would have hung here on the latched global txnMu.
	c2, r2 := dial()
	defer c2.Close()
	sendLine(t, c2, r2, "BEGIN")
	sendLine(t, c2, r2, "INSERT INTO t (a) VALUES (7)")
	if got := sendLine(t, c2, r2, "COMMIT"); got[0] != "OK 0" {
		t.Fatalf("commit on fresh connection: %v", got)
	}
}

// TestConcurrentSessionsOverTCP: two live connections hold transactions at
// the same time — impossible in the seed, where the second BEGIN blocked.
func TestConcurrentSessionsOverTCP(t *testing.T) {
	srv, err := newServer(config{addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	runErr := make(chan error, 1)
	go func() { runErr <- srv.run() }()
	defer func() {
		srv.shutdown()
		<-runErr
	}()

	dial := func() (net.Conn, *bufio.Reader) {
		conn, err := net.Dial("tcp", srv.ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		return conn, bufio.NewReader(conn)
	}
	c0, r0 := dial()
	defer c0.Close()
	sendLine(t, c0, r0, "CREATE TABLE t (k INT, v INT)")

	c1, r1 := dial()
	defer c1.Close()
	c2, r2 := dial()
	defer c2.Close()
	sendLine(t, c1, r1, "BEGIN")
	sendLine(t, c2, r2, "BEGIN") // would block forever in the seed
	sendLine(t, c1, r1, "INSERT INTO t (k, v) VALUES (1, 10)")
	sendLine(t, c2, r2, "INSERT INTO t (k, v) VALUES (2, 20)")
	if got := sendLine(t, c1, r1, "COMMIT"); got[0] != "OK 0" {
		t.Fatalf("c1 commit: %v", got)
	}
	if got := sendLine(t, c2, r2, "COMMIT"); got[0] != "OK 0" {
		t.Fatalf("c2 commit: %v", got)
	}
	got := sendLine(t, c0, r0, "SELECT COUNT(*) FROM t")
	if len(got) != 2 || got[0] != "ROW 2" {
		t.Fatalf("both transactions should have committed: %v", got)
	}
}

// TestMaxSessions: connections beyond -max-sessions are refused with an
// explanatory ERR line, and capacity frees up when a session closes.
func TestMaxSessions(t *testing.T) {
	srv, err := newServer(config{addr: "127.0.0.1:0", maxSessions: 1})
	if err != nil {
		t.Fatal(err)
	}
	runErr := make(chan error, 1)
	go func() { runErr <- srv.run() }()
	defer func() {
		srv.shutdown()
		<-runErr
	}()

	c1, err := net.Dial("tcp", srv.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	r1 := bufio.NewReader(c1)
	sendLine(t, c1, r1, "CREATE TABLE t (a INT)") // session 1 is live

	c2, err := net.Dial("tcp", srv.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	line, err := bufio.NewReader(c2).ReadString('\n')
	c2.Close()
	if err != nil || !strings.HasPrefix(line, "ERR") || !strings.Contains(line, "max-sessions") {
		t.Fatalf("over-capacity connection: line=%q err=%v, want ERR max-sessions", line, err)
	}

	// Freeing the slot admits the next client.
	c1.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c3, err := net.Dial("tcp", srv.ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		r3 := bufio.NewReader(c3)
		if _, err := fmt.Fprintf(c3, "SELECT COUNT(*) FROM t\n"); err != nil {
			t.Fatal(err)
		}
		line, err := r3.ReadString('\n')
		c3.Close()
		if err == nil && strings.HasPrefix(line, "ROW") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("capacity never freed: line=%q err=%v", line, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestMultiModeDisconnectMidTxn: multi-principal mode also gives each
// connection its own transaction scope; a dropped connection must not
// wedge the shared manager (the seed-era stuck-latch bug, -multi flavor).
func TestMultiModeDisconnectMidTxn(t *testing.T) {
	srv, err := newServer(config{addr: "127.0.0.1:0", multi: true})
	if err != nil {
		t.Fatal(err)
	}
	runErr := make(chan error, 1)
	go func() { runErr <- srv.run() }()
	defer func() {
		srv.shutdown()
		<-runErr
	}()

	dial := func() (net.Conn, *bufio.Reader) {
		conn, err := net.Dial("tcp", srv.ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		return conn, bufio.NewReader(conn)
	}
	c0, r0 := dial()
	defer c0.Close()
	sendLine(t, c0, r0, "CREATE TABLE t (a INT)")

	c1, r1 := dial()
	sendLine(t, c1, r1, "BEGIN")
	sendLine(t, c1, r1, "INSERT INTO t (a) VALUES (1)")
	c1.Close() // vanish mid-transaction

	deadline := time.Now().Add(5 * time.Second)
	for {
		got := sendLine(t, c0, r0, "BEGIN")
		if got[0] == "OK 0" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("BEGIN never recovered after -multi disconnect: %v", got)
		}
		time.Sleep(20 * time.Millisecond)
	}
	sendLine(t, c0, r0, "INSERT INTO t (a) VALUES (2)")
	if got := sendLine(t, c0, r0, "COMMIT"); got[0] != "OK 0" {
		t.Fatalf("commit: %v", got)
	}
	got := sendLine(t, c0, r0, "SELECT COUNT(*) FROM t")
	if len(got) != 2 || got[0] != "ROW 1" {
		t.Fatalf("ghost insert leaked or commit lost: %v", got)
	}
}

// TestShardedServerEndToEnd runs the server over a durable 3-shard store:
// statements spread across shards behind the proxy, per-connection
// transactions stay single-shard, and a restart recovers every shard.
func TestShardedServerEndToEnd(t *testing.T) {
	dir := t.TempDir()
	srv, err := newServer(config{addr: "127.0.0.1:0", dataDir: dir, shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	runErr := make(chan error, 1)
	go func() { runErr <- srv.run() }()

	conn, err := net.Dial("tcp", srv.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	sendLine(t, conn, r, "CREATE TABLE t (k TEXT, n INT)")
	for i := 1; i <= 12; i++ {
		sendLine(t, conn, r, fmt.Sprintf("INSERT INTO t (k, n) VALUES ('k%02d', %d)", i, i))
	}
	sendLine(t, conn, r, "BEGIN")
	sendLine(t, conn, r, "INSERT INTO t (k, n) VALUES ('txn', 99)")
	sendLine(t, conn, r, "ROLLBACK")
	lines := sendLine(t, conn, r, "SELECT n FROM t WHERE n >= 5 AND n <= 8")
	if len(lines) != 5 { // 4 ROW + OK
		t.Fatalf("range query over shards returned %v", lines)
	}
	lines = sendLine(t, conn, r, "SELECT COUNT(*) FROM t")
	if len(lines) != 2 || lines[0] != "ROW 12" {
		t.Fatalf("COUNT over shards returned %v", lines)
	}

	srv.shutdown()
	if err := <-runErr; err != nil {
		t.Fatalf("run returned %v", err)
	}

	// Restart: the engine must reopen all three shards and the proxy must
	// recover its onion levels.
	eng, err := sharded.Open(dir, 0, sqldb.DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if eng.Shards() != 3 {
		t.Fatalf("reopened with %d shards", eng.Shards())
	}
	p, err := proxy.NewOnEngine(eng, proxy.Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Execute("SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].I != 12 {
		t.Fatalf("recovered COUNT = %v, want 12", res.Rows)
	}
}

// TestShardedDirLayoutWinsOverFlags: a sharded data directory reopened
// without -shards must come back sharded (the manifest pins the count);
// an explicit mismatching -shards must fail; and a single-store directory
// must refuse -shards entirely. Any of these mistakes would otherwise
// silently serve an empty database.
func TestShardedDirLayoutWinsOverFlags(t *testing.T) {
	dir := t.TempDir()
	srv, err := newServer(config{addr: "127.0.0.1:0", dataDir: dir, shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	runErr := make(chan error, 1)
	go func() { runErr <- srv.run() }()
	conn, err := net.Dial("tcp", srv.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	sendLine(t, conn, r, "CREATE TABLE t (a INT)")
	sendLine(t, conn, r, "INSERT INTO t (a) VALUES (7)")
	conn.Close()
	srv.shutdown()
	if err := <-runErr; err != nil {
		t.Fatal(err)
	}

	// Reopen with the flag defaults (shards: 1): manifest must win.
	srv, err = newServer(config{addr: "127.0.0.1:0", dataDir: dir, shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := srv.eng.Shards(); got != 3 {
		t.Fatalf("reopened with %d shards, manifest says 3", got)
	}
	go func() { runErr <- srv.run() }()
	conn, err = net.Dial("tcp", srv.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	r = bufio.NewReader(conn)
	lines := sendLine(t, conn, r, "SELECT a FROM t")
	if len(lines) != 2 || lines[0] != "ROW 7" {
		t.Fatalf("data lost across flagless reopen: %v", lines)
	}
	conn.Close()
	srv.shutdown()
	if err := <-runErr; err != nil {
		t.Fatal(err)
	}

	// Explicit mismatching count: refuse.
	if _, err := newServer(config{addr: "127.0.0.1:0", dataDir: dir, shards: 2}); err == nil {
		t.Fatal("mismatching -shards accepted")
	}

	// A single-store directory cannot be reinterpreted as sharded.
	sdir := t.TempDir()
	srv, err = newServer(config{addr: "127.0.0.1:0", dataDir: sdir})
	if err != nil {
		t.Fatal(err)
	}
	go func() { runErr <- srv.run() }()
	srv.shutdown()
	if err := <-runErr; err != nil {
		t.Fatal(err)
	}
	if _, err := newServer(config{addr: "127.0.0.1:0", dataDir: sdir, shards: 4}); err == nil {
		t.Fatal("single-store dir accepted -shards 4")
	}
}

// TestStoredBytesCannotForgeResponseLines stores text holding the bytes that
// frame a response (LF, CR, TAB) and the escape character itself, then reads
// it back over TCP: every statement must get exactly one response, every ROW
// the expected number of cells, and every cell must unescape to what was
// stored.
func TestStoredBytesCannotForgeResponseLines(t *testing.T) {
	srv, err := newServer(config{addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	runErr := make(chan error, 1)
	go func() { runErr <- srv.run() }()
	defer func() {
		srv.shutdown()
		<-runErr
	}()
	conn, err := net.Dial("tcp", srv.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)

	stored := []string{"a\nOK 7", "col\tshift", "cr\rlf\r\nERR no", `back\slash \n`, `trailing\`, "it's plain"}
	if got := sendLine(t, conn, r, "CREATE TABLE u (id INT, s TEXT)"); got[0] != "OK 0" {
		t.Fatalf("create: %q", got)
	}
	for i, s := range stored {
		if got := sendLine(t, conn, r, fmt.Sprintf("INSERT INTO u (id, s) VALUES (%d, %s)", i, &sqlparser.StrLit{V: s})); got[0] != "OK 1" {
			t.Fatalf("insert %q: %q", s, got)
		}
	}
	got := sendLine(t, conn, r, "SELECT id, s FROM u ORDER BY id")
	if len(got) != len(stored)+1 || got[len(stored)] != fmt.Sprintf("OK %d", len(stored)) {
		t.Fatalf("SELECT answered %d lines, want %d rows and OK %d: %q", len(got), len(stored), len(stored), got)
	}
	for i, s := range stored {
		cells := strings.Split(strings.TrimPrefix(got[i], "ROW "), "\t")
		if len(cells) != 2 || cells[0] != fmt.Sprint(i) {
			t.Fatalf("row %d = %q: want 2 cells, the first %d", i, got[i], i)
		}
		tok, err := sqlparser.NewLexer("'" + strings.ReplaceAll(cells[1], "'", "''") + "'").Next()
		if err != nil || tok.Text != s {
			t.Fatalf("row %d: cell %q unescapes to %q (%v), stored %q", i, cells[1], tok.Text, err, s)
		}
	}
	// The stream is still in step: the next statement gets its own answer.
	if got := sendLine(t, conn, r, "SELECT COUNT(*) FROM u"); len(got) != 2 || got[0] != fmt.Sprintf("ROW %d", len(stored)) || got[1] != "OK 1" {
		t.Fatalf("statement after the SELECT answered %q", got)
	}
}

// TestREADMEFlagsAreDefined keeps README.md and the flag set in step: every
// -flag on a README command line that runs cryptdb-server, and every
// backquoted `-flag` in its text, must be one newFlagSet defines.
func TestREADMEFlagsAreDefined(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	// Flags the README names that belong to other commands.
	elsewhere := map[string]bool{"json": true} // cryptdb-vet, cryptdb-bench
	fs := newFlagSet(new(config))
	named := 0
	check := func(line int, name string) {
		named++
		if fs.Lookup(name) == nil && !elsewhere[name] {
			t.Errorf("README.md:%d names -%s, which cryptdb-server does not define", line, name)
		}
	}
	backquoted := regexp.MustCompile("`-([a-z][a-z-]*)")
	onCommand := regexp.MustCompile(` -([a-z][a-z-]*)`)
	for i, line := range strings.Split(string(readme), "\n") {
		for _, m := range backquoted.FindAllStringSubmatch(line, -1) {
			check(i+1, m[1])
		}
		if _, args, ok := strings.Cut(line, "cryptdb-server "); ok {
			args, _, _ = strings.Cut(args, "#")
			for _, m := range onCommand.FindAllStringSubmatch(" "+args, -1) {
				check(i+1, m[1])
			}
		}
	}
	if named < 20 {
		t.Fatalf("found only %d flag mentions in README.md; the patterns no longer match it", named)
	}
}
