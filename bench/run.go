package main

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/sqldb"
)

// verifyEvery is the sampling rate of the in-interval oracle comparison:
// one in this many statements of a stable class. Comparing costs the
// generator's CPU, which the server shares, so it is kept rare.
const verifyEvery = 32

// worker is one closed-loop client: an executor, its statement stream, and
// a record of what was acknowledged.
type worker struct {
	ex  executor
	gen generator
	m   *mix
	orc *oracle     // nil: no sampled comparison
	tc  *tracedConn // nil: no root spans
	t0  time.Time   // start of the measured interval
	lat [][]float64 // per class: latencies of measured statements, µs
	end []float64   // completion times of measured statements, s after t0

	attempted, failed int
	firstErr          error
	dead              bool // the connection dropped

	acked     []string         // acknowledged write lines, in order
	lastUpd   map[int64]string // last acknowledged value per updated key
	userBytes int64            // plaintext bytes of acknowledged writes
	lines     []string         // measured lines, kept when tracing
	stable    int              // stable statements seen, for sampling
	speed     *speedometer     // nil: the box's speed is not sampled
}

func newWorker(ex executor, gen generator, m *mix, orc *oracle) *worker {
	return &worker{ex: ex, gen: gen, m: m, orc: orc,
		lat: make([][]float64, len(m.classes)), lastUpd: map[int64]string{}}
}

// do runs one statement. An ERR reply, a dropped connection or an oracle
// mismatch is a failed operation and leaves no latency sample.
func (w *worker) do(o op, measured bool) {
	cl := w.m.classes[o.class]
	verify := false
	if cl.stable && w.orc != nil {
		w.stable++
		verify = w.stable%verifyEvery == 0
	}
	w.attempted++
	start := time.Now()
	if w.tc != nil {
		w.tc.begin(start, cl.name)
	}
	rows, n, err := w.ex.exec(o.line, verify)
	done := time.Now()
	if w.tc != nil {
		w.tc.end(done)
	}
	if err == nil && verify {
		err = w.orc.compare(o.line, rows, n)
	}
	if err != nil {
		w.failed++
		if w.firstErr == nil {
			w.firstErr = fmt.Errorf("%s: %w", o.line, err)
		}
		var reply errReply
		w.dead = !errors.As(err, &reply) && !errors.Is(err, errMismatch)
		return
	}
	if measured {
		us := float64(done.Sub(start).Nanoseconds()) / 1e3
		w.lat[o.class] = append(w.lat[o.class], us)
		w.end = append(w.end, done.Sub(w.t0).Seconds())
		if w.tc != nil {
			w.lines = append(w.lines, o.line)
		}
	}
	if cl.write {
		w.acked = append(w.acked, o.line)
		w.userBytes += o.plain
		if o.update {
			w.lastUpd[o.key] = o.val
		}
	}
}

// drive runs every worker's closed loop, zero think time, until each has
// issued n statements (n > 0) or d has passed (d > 0). It returns the time
// from the common start to the last completion.
func drive(ws []*worker, n int, d time.Duration, measured bool) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for _, w := range ws {
		w.t0 = start
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; !w.dead && (n == 0 || i < n) && (d == 0 || time.Since(start) < d); i++ {
				w.do(w.gen.next(), measured)
				w.speed.tick()
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// oracle is a plaintext sqldb loaded from the same lines as the server.
type oracle struct{ db *sqldb.DB }

var errMismatch = errors.New("oracle mismatch")

func newOracle(ddl, load []string) (*oracle, error) {
	o := &oracle{db: sqldb.New()}
	for _, lines := range [][]string{ddl, load} {
		if err := o.apply(lines); err != nil {
			return nil, err
		}
	}
	return o, nil
}

func (o *oracle) apply(lines []string) error {
	for _, l := range lines {
		if _, err := o.db.ExecSQL(l); err != nil {
			return fmt.Errorf("oracle: %s: %w", clip(l), err)
		}
	}
	return nil
}

// compare checks a server answer against the oracle's for the same line.
// Rows are compared as multisets: only range_topk orders its rows, and its
// sort key is unique.
func (o *oracle) compare(line string, rows []string, n int) error {
	res, err := o.db.ExecSQL(line)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	want, wantN := formatResult(res)
	if n != wantN {
		return fmt.Errorf("%w: OK %d, oracle has %d", errMismatch, n, wantN)
	}
	got := slices.Clone(rows)
	sort.Strings(got)
	sort.Strings(want)
	if !slices.Equal(got, want) {
		return fmt.Errorf("%w: got rows %q, oracle has %q", errMismatch, clip(strings.Join(got, "|")), clip(strings.Join(want, "|")))
	}
	return nil
}

// formatResult renders a result the way cryptdb-server's serve loop does.
func formatResult(res *sqldb.Result) (rows []string, n int) {
	for _, row := range res.Rows {
		parts := make([]string, len(row))
		for i, v := range row {
			parts[i] = v.String()
		}
		rows = append(rows, strings.Join(parts, "\t"))
	}
	if len(rows) > 0 {
		return rows, len(rows)
	}
	return nil, res.Affected
}

func clip(s string) string {
	if len(s) > 200 {
		return s[:200] + "..."
	}
	return s
}

// classCheck runs one statement of every class on w and on the oracle and
// compares the answers. The first statement of a class is also what makes
// the proxy adjust its onions, so this is the first step of the warm-up.
func classCheck(w *worker, orc *oracle) error {
	for c, cl := range w.m.classes {
		o := w.gen.forClass(c)
		rows, n, err := w.ex.exec(o.line, true)
		if err == nil {
			err = orc.compare(o.line, rows, n)
		}
		if err != nil {
			return fmt.Errorf("class %s: %s: %w", cl.name, clip(o.line), err)
		}
		if o.update {
			w.lastUpd[o.key] = o.val
		}
	}
	return nil
}

// maxProbes bounds the updated keys read back after the crash.
const maxProbes = 200

// verifyAfterCrash checks, on a server reopened after kill -9, that every
// acknowledged write is there: the oracle replays the acknowledged lines,
// then the mix's totals and one read of every class must agree with it,
// and updated rows must hold a last acknowledged value.
func verifyAfterCrash(ex executor, orc *oracle, ws []*worker) error {
	for _, w := range ws {
		if err := orc.apply(w.acked); err != nil {
			return err
		}
	}
	m := ws[0].m
	lines := slices.Clone(m.totals)
	for c, cl := range m.classes {
		if !cl.write {
			lines = append(lines, ws[0].gen.forClass(c).line)
		}
	}
	for _, l := range lines {
		rows, n, err := ex.exec(l, true)
		if err == nil {
			err = orc.compare(l, rows, n)
		}
		if err != nil {
			return fmt.Errorf("after crash: %s: %w", clip(l), err)
		}
	}

	// Two connections may have updated one key; either's last value is a
	// correct outcome.
	last := map[int64][]string{}
	for _, w := range ws {
		for k, v := range w.lastUpd {
			last[k] = append(last[k], v)
		}
	}
	keys := make([]int64, 0, len(last))
	for k := range last {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	step := len(keys)/maxProbes + 1
	for i := 0; i < len(keys); i += step {
		rows, _, err := ex.exec(m.probe(keys[i]), true)
		if err != nil {
			return fmt.Errorf("after crash: probing key %d: %w", keys[i], err)
		}
		if len(rows) != 1 || !slices.Contains(last[keys[i]], rows[0]) {
			return fmt.Errorf("after crash: key %d holds %q, acknowledged %q", keys[i], rows, last[keys[i]])
		}
	}
	return nil
}
