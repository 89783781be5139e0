package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sqldb"
	"repro/internal/sqlparser"
	"repro/internal/store"
	wl "repro/internal/workload"
)

// Spans are recorded from here, around the calls into each layer; the
// program itself is not instrumented. A statement has a root span,
// client.stmt, around Session.Execute, and one store.exec child for every
// call the proxy makes into the storage engine while serving it. All spans
// of a statement share its id. Spans stay in memory until the run ends.

const (
	spanRoot  = "client.stmt"
	spanStore = "store.exec"
)

// span is one line of the trace file. Times are nanoseconds since the
// tracer was made.
type span struct {
	Stmt   int64  `json:"stmt"`
	Name   string `json:"span"`
	Parent string `json:"parent,omitempty"`
	Conn   int    `json:"conn"`
	Class  string `json:"class,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer decorates a store.Engine: every statement call, on the engine or
// on a connection it hands out, becomes a store.exec span while recording
// is on. Everything else forwards through the embedded interface.
type tracer struct {
	store.Engine
	on     atomic.Bool
	epoch  time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	conns []*tracedConn
	// Calls on the engine itself (onion adjustments, DDL) belong to no
	// connection; they are kept with statement id 0.
	loose []span
}

func newTracer(eng store.Engine) *tracer {
	return &tracer{Engine: eng, epoch: time.Now()}
}

// tracedConn decorates one store.Conn. A connection serves one statement
// at a time, so its spans need no lock.
type tracedConn struct {
	store.Conn
	tr    *tracer
	id    int
	stmt  int64 // the statement being served; 0 between statements
	class string
	start time.Time
	spans []span
}

func (t *tracer) NewConn() store.Conn {
	t.mu.Lock()
	defer t.mu.Unlock()
	tc := &tracedConn{Conn: t.Engine.NewConn(), tr: t, id: len(t.conns)}
	t.conns = append(t.conns, tc)
	return tc
}

// lastConn is the connection most recently handed out: the one behind the
// proxy session the caller has just opened.
func (t *tracer) lastConn() *tracedConn {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.conns[len(t.conns)-1]
}

// begin opens the root span of the connection's next statement.
func (c *tracedConn) begin(now time.Time, class string) {
	if !c.tr.on.Load() {
		return
	}
	c.stmt, c.class, c.start = c.tr.nextID.Add(1), class, now
}

// end closes the root span.
func (c *tracedConn) end(now time.Time) {
	if c.stmt == 0 {
		return
	}
	c.spans = append(c.spans, span{Stmt: c.stmt, Name: spanRoot, Conn: c.id, Class: c.class,
		Start: c.start.Sub(c.tr.epoch).Nanoseconds(), End: now.Sub(c.tr.epoch).Nanoseconds()})
	c.stmt = 0
}

func (c *tracedConn) child(start time.Time) {
	if c.stmt == 0 {
		return
	}
	c.spans = append(c.spans, span{Stmt: c.stmt, Name: spanStore, Parent: spanRoot, Conn: c.id,
		Start: start.Sub(c.tr.epoch).Nanoseconds(), End: time.Since(c.tr.epoch).Nanoseconds()})
}

func (c *tracedConn) ExecSQL(sql string, params ...sqldb.Value) (*sqldb.Result, error) {
	defer c.child(time.Now())
	return c.Conn.ExecSQL(sql, params...)
}

func (c *tracedConn) Exec(st sqlparser.Statement, params ...sqldb.Value) (*sqldb.Result, error) {
	defer c.child(time.Now())
	return c.Conn.Exec(st, params...)
}

func (c *tracedConn) ExecWithMeta(st sqlparser.Statement, meta []byte, params ...sqldb.Value) (*sqldb.Result, error) {
	defer c.child(time.Now())
	return c.Conn.ExecWithMeta(st, meta, params...)
}

func (t *tracer) engineCall(start time.Time) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.loose = append(t.loose, span{Name: spanStore, Conn: -1,
		Start: start.Sub(t.epoch).Nanoseconds(), End: time.Since(t.epoch).Nanoseconds()})
}

func (t *tracer) ExecSQL(sql string, params ...sqldb.Value) (*sqldb.Result, error) {
	defer t.engineCall(time.Now())
	return t.Engine.ExecSQL(sql, params...)
}

func (t *tracer) Exec(st sqlparser.Statement, params ...sqldb.Value) (*sqldb.Result, error) {
	defer t.engineCall(time.Now())
	return t.Engine.Exec(st, params...)
}

func (t *tracer) ExecWithMeta(st sqlparser.Statement, meta []byte, params ...sqldb.Value) (*sqldb.Result, error) {
	defer t.engineCall(time.Now())
	return t.Engine.ExecWithMeta(st, meta, params...)
}

func (t *tracer) ExecAutonomous(st sqlparser.Statement, params ...sqldb.Value) (*sqldb.Result, error) {
	defer t.engineCall(time.Now())
	return t.Engine.ExecAutonomous(st, params...)
}

func (t *tracer) ExecAutonomousWithMeta(st sqlparser.Statement, meta []byte, params ...sqldb.Value) (*sqldb.Result, error) {
	defer t.engineCall(time.Now())
	return t.Engine.ExecAutonomousWithMeta(st, meta, params...)
}

// all returns every recorded span. Call it once the workers have stopped.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]span(nil), t.loose...)
	for _, c := range t.conns {
		out = append(out, c.spans...)
	}
	return out
}

// spanTotals is what the per-layer metrics need from a trace.
type spanTotals struct {
	stmts, calls int64
	rootNs       int64 // sum of root spans
	storeNs      int64 // sum of their store.exec children
}

// selfNs is the root spans' self time: their duration minus the part their
// children cover. The proxy calls the engine sequentially, so children of
// one statement never overlap.
func (s spanTotals) selfNs() int64 { return s.rootNs - s.storeNs }

func totals(spans []span) spanTotals {
	var s spanTotals
	for _, sp := range spans {
		switch {
		case sp.Name == spanRoot:
			s.stmts++
			s.rootNs += sp.End - sp.Start
		case sp.Stmt != 0:
			s.calls++
			s.storeNs += sp.End - sp.Start
		}
	}
	return s
}

func writeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, sp := range spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// inproc runs protocol lines on an executor inside this process.
type inproc struct {
	ex      wl.Executor
	closeFn func() error
}

func (c inproc) exec(line string, wantRows bool) ([]string, int, error) {
	res, err := c.ex.Execute(line)
	if err != nil {
		return nil, 0, errReply(err.Error())
	}
	if !wantRows {
		if len(res.Rows) > 0 {
			return nil, len(res.Rows), nil
		}
		return nil, res.Affected, nil
	}
	rows, n := formatResult(res)
	return rows, n, nil
}

func (c inproc) close() {
	if c.closeFn != nil {
		c.closeFn() //nolint:errcheck // a session close only rolls back; nothing is open
	}
}
