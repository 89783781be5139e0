// Command cryptdb-server exposes the CryptDB proxy over TCP with a simple
// line protocol, playing the role of the proxy server machine in Figure 1:
// applications connect and speak SQL; the embedded DBMS behind the proxy
// only ever sees ciphertext.
//
// Protocol: one SQL statement per line. Responses:
//
//	OK <n>              for writes (n rows affected)
//	ROW <tab-separated> for each result row, then OK <n>
//	ERR <message>       on error
//
// A response line never carries a raw backslash, LF, CR or TAB from a cell
// or an error message: they are written as \\, \n, \r and \t (the escapes
// a SQL string literal reads back), so a stored newline cannot end a line
// early and a stored tab cannot shift columns. Split a ROW on TAB first,
// then unescape each cell.
//
// Usage:
//
//	cryptdb-server [-addr :7432] [-multi] [-data-dir DIR] [-shards N]
//	               [-wal-nofsync] [-checkpoint-mb N] [-max-sessions N]
//	               [-replicate-to ADDR] [-replica-of ADDR]
//
// Each TCP connection gets its own proxy session: BEGIN/COMMIT/ROLLBACK
// scope to the connection that issued them, concurrent connections hold
// independent transactions, and a connection that drops mid-transaction is
// rolled back automatically. -max-sessions caps concurrent connections
// (0 = unlimited); beyond the cap new connections are refused with an ERR
// line rather than queued.
//
// With -multi the server runs in multi-principal mode: PRINCTYPE / ENC FOR /
// SPEAKS FOR annotations are honored and cryptdb_active logins intercepted.
// Connections still get private transaction scope (one mp session each);
// login and key-chaining state stays global across connections, matching
// §4.2's per-user (not per-connection) key model.
//
// With -data-dir the instance is durable: the embedded DBMS keeps a
// write-ahead log and checkpointed page segments under DIR, and the proxy persists its key
// material and sealed onion metadata there too, so a restarted server —
// even one killed with SIGKILL — serves exactly the rows and onion levels
// it had before. SIGINT/SIGTERM trigger a graceful shutdown: the listener
// closes, in-flight statements finish and their responses flush, then the
// WAL syncs and the process exits.
//
// With -shards N the store is hash-partitioned across N embedded DBMS
// instances, each with its own WAL and group-commit stream (under
// DIR/shard-000/ ... when durable): rows are placed by hash of the hidden
// row id, reads scatter-gather, and write throughput scales with the shard
// count. The shard count of a durable directory is fixed at creation
// (recorded in DIR/sharded.json); reopening with a different -shards fails
// rather than misroute rows.
//
// With -replicate-to ADDR the server additionally listens on ADDR for
// replication followers and ships every shard's write-ahead log to them
// asynchronously (commits never wait on a follower). With -replica-of ADDR
// the server is a read-only follower of the primary at ADDR: it mirrors
// the primary's topology (probed over the wire), replays its WAL stream —
// sealed proxy metadata included — and serves SELECTs against the replayed
// ciphertext; every write gets an ERR naming the primary to send it to.
// Both require -data-dir, and a follower's data dir must contain a copy of
// the primary's proxy-keys.json (the proxy cannot unseal replicated
// metadata without it).
//
// Try it:
//
//	printf 'CREATE TABLE t (a INT, b TEXT)\nINSERT INTO t (a, b) VALUES (1, %s)\nSELECT * FROM t\n' "'x'" | nc localhost 7432
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/mp"
	"repro/internal/proxy"
	"repro/internal/sqldb"
	"repro/internal/sqlparser"
	"repro/internal/store"
	"repro/internal/store/replicated"
	"repro/internal/store/sharded"
	"repro/internal/store/single"
	"repro/internal/workload"
)

// drainTimeout bounds how long a graceful shutdown waits for in-flight
// connections before closing them forcibly.
const drainTimeout = 10 * time.Second

// newFlagSet declares every cryptdb-server flag, bound to cfg. It is the
// one place a flag is defined, so the README check in main_test.go can ask
// it which flags exist.
func newFlagSet(cfg *config) *flag.FlagSet {
	fs := flag.NewFlagSet("cryptdb-server", flag.ExitOnError)
	fs.StringVar(&cfg.addr, "addr", ":7432", "listen address")
	fs.BoolVar(&cfg.multi, "multi", false, "enable multi-principal mode (§4)")
	fs.StringVar(&cfg.dataDir, "data-dir", "", "directory for durable state (WAL, page segments, proxy keys); empty runs in-memory")
	fs.IntVar(&cfg.shards, "shards", 1, "number of store shards (hash-partitioned by hidden row id); a durable directory fixes the count at creation")
	fs.BoolVar(&cfg.noFsync, "wal-nofsync", false, "skip fsync after each commit (faster; a machine crash may lose recent commits)")
	fs.Int64Var(&cfg.checkpointMB, "checkpoint-mb", 4, "WAL size in MiB that triggers an automatic checkpoint (dirty pages written, log truncated); 0 disables")
	fs.BoolVar(&cfg.paged, "paged", false, "bound the buffer cache at -cache-mb, so data may exceed RAM: pages beyond the budget are evicted and fault back from their segments (requires -data-dir); without it every page stays in memory. Kept because the benchmark sets it; a benchmark change can fold it into -cache-mb")
	fs.Int64Var(&cfg.cacheMB, "cache-mb", 64, "buffer-cache budget in MiB with -paged, split evenly across shards; ignored without -paged")
	fs.IntVar(&cfg.maxSessions, "max-sessions", 0, "maximum concurrent client sessions; 0 = unlimited")
	fs.StringVar(&cfg.replicateTo, "replicate-to", "", "also listen on this address for replication followers and ship the WAL to them (requires -data-dir)")
	fs.StringVar(&cfg.replicaOf, "replica-of", "", "run as a read-only follower of the primary at this address (requires -data-dir with the primary's proxy-keys.json)")
	return fs
}

func main() {
	var cfg config
	newFlagSet(&cfg).Parse(os.Args[1:]) //nolint:errcheck // ExitOnError: Parse exits on a bad flag

	srv, err := newServer(cfg)
	if err != nil {
		log.Fatal(err)
	}
	mode := "in-memory"
	if cfg.dataDir != "" {
		mode = "durable, data-dir=" + cfg.dataDir
	}
	if n := srv.eng.Shards(); n > 1 {
		mode += fmt.Sprintf(", %d shards", n)
	}
	if b := srv.eng.Stats().Cache.BudgetBytes; b > 0 {
		mode += fmt.Sprintf(", paged (cache %d MiB)", b>>20)
	}
	if cfg.replicaOf != "" {
		mode += ", read-only replica of " + cfg.replicaOf
	} else if pe, ok := srv.eng.(*replicated.PrimaryEngine); ok {
		mode += ", replicating on " + pe.Addr()
	}
	log.Printf("cryptdb-server listening on %s (multi-principal: %v, %s)", srv.ln.Addr(), cfg.multi, mode)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		sig := <-sigCh
		log.Printf("received %v, shutting down", sig)
		srv.shutdown()
	}()

	if err := srv.run(); err != nil {
		log.Fatal(err)
	}
	log.Printf("cryptdb-server: shutdown complete")
}

type config struct {
	addr         string
	multi        bool
	dataDir      string
	shards       int
	noFsync      bool
	checkpointMB int64
	paged        bool
	cacheMB      int64
	maxSessions  int
	replicateTo  string
	replicaOf    string
}

// durability translates the flag values into engine options. The cache
// budget here is the whole engine's; openEngine splits it across shards.
func (cfg config) durability() sqldb.DurabilityOptions {
	cb := cfg.checkpointMB << 20
	if cb == 0 {
		cb = -1 // flag semantics: 0 disables auto-checkpoints
	}
	return sqldb.DurabilityOptions{
		NoFsync:         cfg.noFsync,
		CheckpointBytes: cb,
		Paged:           cfg.paged,
		CacheBytes:      cfg.cacheMB << 20,
	}
}

// splitCache divides the engine-wide cache budget across n shards.
func splitCache(dopts sqldb.DurabilityOptions, n int) sqldb.DurabilityOptions {
	if n > 1 && dopts.CacheBytes > 0 {
		dopts.CacheBytes /= int64(n)
	}
	return dopts
}

// server owns the listener, the executor stack (proxy or multi-principal
// wrapper) and the durable database, and coordinates graceful shutdown.
// Every connection executes on its own session (a proxy.Session, or an
// mp.Session sharing the manager's global login state in -multi mode), so
// transaction scope follows the connection.
type server struct {
	ln  net.Listener
	px  *proxy.Proxy // also behind mp in multi-principal mode
	mp  *mp.Manager  // nil in single-principal mode
	eng store.Engine

	maxSessions int

	mu       sync.Mutex
	conns    map[net.Conn]struct{}
	draining bool
	wg       sync.WaitGroup
	done     chan struct{}
}

func newServer(cfg config) (*server, error) {
	if cfg.replicateTo != "" && cfg.replicaOf != "" {
		return nil, fmt.Errorf("-replicate-to and -replica-of are mutually exclusive")
	}
	if (cfg.replicateTo != "" || cfg.replicaOf != "") && cfg.dataDir == "" {
		return nil, fmt.Errorf("replication requires -data-dir (the WAL is the replication stream)")
	}
	if cfg.replicaOf != "" && cfg.multi {
		return nil, fmt.Errorf("-replica-of cannot be combined with -multi (followers are read-only)")
	}
	if cfg.replicaOf != "" && cfg.shards > 1 {
		return nil, fmt.Errorf("-replica-of determines the shard count from the primary; drop -shards")
	}
	if cfg.paged && cfg.dataDir == "" {
		return nil, fmt.Errorf("-paged requires -data-dir (pages live in on-disk segment files)")
	}
	eng, err := openEngine(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.replicateTo != "" {
		pe, err := replicated.WrapPrimary(eng, cfg.replicateTo)
		if err != nil {
			eng.Close()
			return nil, err
		}
		eng = pe
	}
	p, err := proxy.NewOnEngine(eng, proxy.Options{DataDir: cfg.dataDir})
	if err != nil {
		eng.Close()
		return nil, err
	}
	var mpm *mp.Manager
	if cfg.multi {
		if mpm, err = mp.New(p); err != nil {
			eng.Close()
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		eng.Close()
		return nil, err
	}
	return &server{
		ln:          ln,
		px:          p,
		mp:          mpm,
		eng:         eng,
		maxSessions: cfg.maxSessions,
		conns:       make(map[net.Conn]struct{}),
		done:        make(chan struct{}),
	}, nil
}

// openEngine builds the storage engine the configuration asks for: one
// embedded sqldb (in-memory or durable), or a hash-partitioned sharded
// store. An existing data directory's layout wins over the flags: a
// sharded directory reopened without -shards comes back sharded (its
// manifest pins the count), and a single-store directory cannot be
// reinterpreted as sharded — either mistake would silently serve an
// empty database.
func openEngine(cfg config) (store.Engine, error) {
	dopts := cfg.durability()
	if cfg.replicaOf != "" {
		// Follower topology mirrors the primary's, probed over the wire;
		// local flags cannot override it.
		return replicated.OpenFollower(cfg.dataDir, cfg.replicaOf, dopts)
	}
	if cfg.dataDir != "" {
		manifestShards, isSharded := sharded.DirShards(cfg.dataDir)
		if isSharded {
			if cfg.shards > 1 && manifestShards > 0 && cfg.shards != manifestShards {
				return nil, fmt.Errorf("data dir %s has %d shards, -shards=%d", cfg.dataDir, manifestShards, cfg.shards)
			}
			n := cfg.shards
			if n <= 1 {
				n = 0 // accept the manifest's count
			}
			// An unreadable manifest (manifestShards == 0) falls through to
			// Open, which fails loudly rather than serving an empty store.
			return sharded.Open(cfg.dataDir, n, splitCache(dopts, manifestShards))
		}
		if cfg.shards > 1 {
			if _, err := os.Stat(filepath.Join(cfg.dataDir, "wal.log")); err == nil {
				return nil, fmt.Errorf("data dir %s holds a single (unsharded) store; it cannot be reopened with -shards %d", cfg.dataDir, cfg.shards)
			}
			return sharded.Open(cfg.dataDir, cfg.shards, splitCache(dopts, cfg.shards))
		}
		return single.Open(cfg.dataDir, dopts)
	}
	if cfg.shards > 1 {
		return sharded.New(cfg.shards), nil
	}
	return single.New(sqldb.New()), nil
}

// run accepts connections until shutdown, then drains and flushes.
func (s *server) run() error {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if s.isDraining() {
				break
			}
			log.Printf("accept: %v", err)
			continue
		}
		if !s.track(conn) {
			// Raced with shutdown, or the session cap is reached: tell the
			// client why instead of silently dropping the connection.
			if !s.isDraining() {
				fmt.Fprintf(conn, "ERR server at max-sessions capacity (%d)\n", s.maxSessions)
			}
			conn.Close() //cryptdb:vet-ok durabilityerr: refused connection carries no durable state; nothing to report to
			continue
		}
		go func() {
			defer s.untrack(conn)
			// One session per connection: transaction scope follows the
			// connection, and closing the session rolls back anything the
			// client left open (disconnect mid-transaction included).
			var ex workload.Executor
			if s.mp != nil {
				sess := s.mp.NewSession()
				defer sess.Close()
				ex = sess
			} else {
				sess := s.px.NewSession()
				defer sess.Close()
				ex = sess
			}
			serve(conn, ex)
		}()
	}

	// Drain: every tracked connection got a read deadline in the past, so
	// idle scanners unblock immediately while a statement mid-execution
	// finishes and flushes its response first.
	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-time.After(drainTimeout):
		log.Printf("drain timeout after %v; closing remaining connections", drainTimeout)
		s.mu.Lock()
		for c := range s.conns {
			c.Close() //cryptdb:vet-ok durabilityerr: forced teardown after drain timeout; the engine Close below is the durability point
		}
		s.mu.Unlock()
		<-drained
	}

	// Report engine-wide work before closing: counters sum across every
	// shard (reading shard 0 alone would under-report), and the store line
	// prints the whole snapshot, so a counter added to sqldb.Stats reaches
	// it unedited. Counts only: no statement text or value reaches the log.
	ps := s.px.Stats()
	log.Printf("cryptdb-server: proxy stats: queries=%d ast-cache hits=%d misses=%d hom-memo hits=%d decrypts=%d",
		ps.Queries, ps.ASTCacheHits, ps.ASTCacheMisses, ps.HOMMemoHits, ps.HOMDecrypts)
	st := s.eng.Stats()
	log.Printf("cryptdb-server: store stats: shards=%d %+v", s.eng.Shards(), st.Stats)
	for _, f := range st.Followers {
		log.Printf("cryptdb-server: follower %s shard %d: acked seq %d of %d (lag %d)",
			f.Remote, f.Shard, f.AckedSeq, f.PrimarySeq, f.PrimarySeq-f.AckedSeq)
	}

	// Flush durable state last: after this returns, everything committed
	// is on disk.
	err := s.eng.Close()
	close(s.done)
	return err
}

// shutdown stops accepting and nudges every connection to finish. Safe to
// call more than once; returns after run completes the drain.
func (s *server) shutdown() {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	for c := range s.conns {
		// Interrupt the next read without cutting the write side: the
		// in-flight statement's response still flushes.
		c.SetReadDeadline(time.Now()) //nolint:errcheck // best effort
	}
	s.mu.Unlock()
	if !already {
		s.ln.Close() //cryptdb:vet-ok durabilityerr: closing the listener only unblocks Accept; no data rides it
	}
	<-s.done
}

func (s *server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

func (s *server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	if s.maxSessions > 0 && len(s.conns) >= s.maxSessions {
		return false
	}
	s.conns[conn] = struct{}{}
	s.wg.Add(1)
	return true
}

func (s *server) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	s.wg.Done()
}

func serve(conn net.Conn, ex workload.Executor) {
	defer conn.Close()
	in := bufio.NewScanner(conn)
	in.Buffer(make([]byte, 1<<20), 1<<20)
	out := bufio.NewWriter(conn)
	defer out.Flush()

	for in.Scan() {
		sql := strings.TrimSpace(in.Text())
		if sql == "" {
			continue
		}
		if strings.EqualFold(sql, "quit") {
			return
		}
		res, err := ex.Execute(sql)
		if err != nil {
			fmt.Fprintf(out, "ERR %s\n", sqlparser.EscapeString(err.Error()))
			if out.Flush() != nil {
				return // write side is dead; stop serving the connection
			}
			continue
		}
		for _, row := range res.Rows {
			parts := make([]string, len(row))
			for i, v := range row {
				parts[i] = sqlparser.EscapeString(v.String())
			}
			// Rows decrypt at the proxy and return to the client in the
			// clear — this IS the trusted side of the CryptDB boundary.
			fmt.Fprintf(out, "ROW %s\n", strings.Join(parts, "\t")) //cryptdb:sink-ok plaintext results return to the trusted client side of the proxy boundary
		}
		n := res.Affected
		if len(res.Rows) > 0 {
			n = len(res.Rows)
		}
		fmt.Fprintf(out, "OK %d\n", n) //cryptdb:sink-ok row count only; and the client side is trusted
		if out.Flush() != nil {
			return // client hung up mid-result; nothing left to serve
		}
	}
	// A scan failure (e.g. a line over the 1 MiB buffer) would otherwise
	// close the connection silently; tell the client why. Deadline errors
	// are the shutdown path nudging idle readers — not worth reporting.
	// Drain what is left of the offending input first: closing a socket
	// with unread bytes queued can RST the ERR line away before the
	// client reads it.
	if err := in.Err(); err != nil && !os.IsTimeout(err) {
		fmt.Fprintf(out, "ERR %s\n", sqlparser.EscapeString(err.Error()))
		if out.Flush() != nil {
			return // both directions dead; skip the drain
		}
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		io.Copy(io.Discard, conn) //nolint:errcheck // best-effort drain
	}
}
