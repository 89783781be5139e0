package main

import (
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/sqldb"
	"repro/internal/sqlparser"
	"repro/internal/store"
	"repro/internal/store/single"
)

// lines renders everything a (mix, seed) sends: the load, then the first
// statements of each connection's stream.
func lines(m *mix, seed int64) []string {
	out, _ := m.load(seed)
	for conn := 0; conn < 2; conn++ {
		g := m.stream(seed, conn, 2)
		for i := 0; i < 300; i++ {
			out = append(out, g.next().line)
		}
	}
	return out
}

func TestSameSeedSameLines(t *testing.T) {
	for _, mk := range []func(bool) *mix{tpccSized, analyticSized(0, 0)} {
		a, b, c := lines(mk(true), 7), lines(mk(true), 7), lines(mk(true), 8)
		if !slices.Equal(a, b) {
			t.Errorf("%s: seed 7 gave different lines twice", mk(true).name)
		}
		if slices.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same lines", mk(true).name)
		}
	}
}

func TestLinesParse(t *testing.T) {
	for _, mk := range []func(bool) *mix{tpccSized, analyticSized(0, 0)} {
		m := mk(true)
		for _, l := range append(slices.Clone(m.ddl), lines(m, 3)...) {
			if strings.ContainsAny(l, "\n?") {
				t.Fatalf("%s: line has a newline or an unbound parameter: %q", m.name, l)
			}
			if _, err := sqlparser.Parse(l); err != nil {
				t.Fatalf("%s: %q: %v", m.name, l, err)
			}
		}
	}
}

// The inliner's literals must read back as the values they were made from.
func TestInlineRoundTrip(t *testing.T) {
	db := sqldb.New()
	for _, v := range []sqldb.Value{
		sqldb.Int(0), sqldb.Int(-42), sqldb.Int(1 << 40),
		sqldb.Text(""), sqldb.Text("plain words"), sqldb.Text("it's"), sqldb.Text(`back\slash 'q' "d" %_`),
	} {
		res, err := db.ExecSQL(inline("SELECT ?", []sqldb.Value{v}))
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if got := res.Rows[0][0]; got.Kind != v.Kind || got.I != v.I || got.S != v.S {
			t.Errorf("inlined %#v, read back %#v", v, got)
		}
	}
}

var (
	_ store.Engine = (*tracer)(nil)
	_ store.Conn   = (*tracedConn)(nil)
)

// A synthetic statement making two engine calls: the root span must equal
// its self time plus its children, which share its id and lie inside it.
func TestTracerSpans(t *testing.T) {
	tr := newTracer(single.New(sqldb.New()))
	conn := tr.NewConn()
	tc := tr.lastConn()
	if _, err := conn.ExecSQL("CREATE TABLE t (a INT)"); err != nil {
		t.Fatal(err)
	}
	if len(tr.all()) != 0 {
		t.Fatal("spans recorded while off")
	}

	tr.on.Store(true)
	tc.begin(time.Now(), "synthetic")
	for _, sql := range []string{"INSERT INTO t (a) VALUES (1)", "SELECT a FROM t"} {
		if _, err := conn.ExecSQL(sql); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(time.Millisecond) // self time
	tc.end(time.Now())
	if _, err := conn.ExecSQL("SELECT a FROM t"); err != nil { // between statements: not a child
		t.Fatal(err)
	}

	spans := tr.all()
	if len(spans) != 3 {
		t.Fatalf("want a root and two children, got %+v", spans)
	}
	var root span
	for _, sp := range spans {
		if sp.Name == spanRoot {
			root = sp
		}
	}
	for _, sp := range spans {
		if sp.Stmt != root.Stmt || sp.Start < root.Start || sp.End > root.End || sp.End < sp.Start {
			t.Errorf("span %+v is not inside root %+v", sp, root)
		}
	}
	tot := totals(spans)
	if tot.stmts != 1 || tot.calls != 2 {
		t.Errorf("totals %+v", tot)
	}
	if self := tot.selfNs(); self < int64(time.Millisecond) || self+tot.storeNs != root.End-root.Start {
		t.Errorf("root %d ns != self %d + children %d", root.End-root.Start, self, tot.storeNs)
	}
}

func TestStats(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if p := percentile(xs, 50); p != 3 {
		t.Errorf("p50 = %v", p)
	}
	if p := percentile(xs, 95); p != 5 {
		t.Errorf("p95 = %v", p)
	}
	if g := geomean([]float64{2, 8, 0}); g < 3.999 || g > 4.001 {
		t.Errorf("geomean = %v", g)
	}
	if cv := windowCV([]float64{0.5, 1.5, 2.5, 3.5}, 4, 1); cv != 0 {
		t.Errorf("cv of a steady rate = %v", cv)
	}
}

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// A -smoke pass over every workload: every metric BENCHMARK.json names
// is emitted exactly once with its unit, nothing else is, the checks pass,
// and no onion adjusts after the warm-up.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs cryptdb-server")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	bin, err := buildServer(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("BENCHMARK.json workload %d is %+v, the program's is %s: %s", i, bj.Workloads[i], w.name, w.why)
		}
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			m := w.mix(true)
			c := configure(w, bin, 1, 1, true, true)
			c.workDir, c.traceDir = t.TempDir(), t.TempDir()
			r, err := runTCP(c, w, m)
			if err != nil {
				t.Fatal(err)
			}
			if err := firstFailure(r.workers); err != nil || r.checkErr != nil {
				t.Fatalf("failed operation: %v; check after kill -9: %v", err, r.checkErr)
			}
			var e2e, layers report
			endToEnd(&e2e, r)
			if err := layerMetrics(&layers, c, w, m, r, 1); err != nil {
				t.Fatal(err)
			}
			if n := layers.metrics["proxy.onion_adjustments"].Value; n != 0 {
				t.Errorf("%v onion adjustments after the warm-up", n)
			}
			if n := layers.metrics["trace.spans"].Value; n == 0 {
				t.Error("no spans recorded")
			}
			for _, cmp := range []struct {
				kind string
				want []struct{ Name, Unit string }
				got  report
			}{{"end_to_end", bj.EndToEnd, e2e}, {"per_layer", bj.PerLayer, layers}} {
				if len(cmp.want) != len(cmp.got.names) {
					t.Errorf("%s: BENCHMARK.json names %d metrics, the run emitted %d", cmp.kind, len(cmp.want), len(cmp.got.names))
				}
				for _, wm := range cmp.want {
					if got, ok := cmp.got.metrics[wm.Name]; !ok || got.Unit != wm.Unit {
						t.Errorf("%s: %s [%s]: emitted %+v, present %v", cmp.kind, wm.Name, wm.Unit, got, ok)
					}
				}
			}
		})
	}
}
