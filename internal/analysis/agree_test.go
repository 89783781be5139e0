package analysis

import (
	"strings"
	"testing"

	"repro/internal/proxy"
	"repro/internal/sqldb"
	"repro/internal/workload/tpcc"
	"repro/internal/workload/trace"
)

// TestTrainerAgreesWithProxy: a trainer and a live proxy decide every
// statement of the Figure 9 corpora the same way. A statement either runs
// on the live proxy and the trainer logs no warning for it, or the live
// proxy refuses it and the trainer logs the reason. The synthetic app adds
// the shapes at the edge of what runs: a comparison of a plain column with
// an encrypted one, predicates over plain columns only, IS NULL over a
// computed expression, ORDER BY an aggregate's alias with a LIMIT.
func TestTrainerAgreesWithProxy(t *testing.T) {
	apps := []trace.App{{
		Name:   "shapes",
		Schema: []string{"CREATE TABLE t (id INT PRIMARY KEY, pv INT PLAIN, ev INT, es TEXT)"},
		Queries: []trace.Query{
			{SQL: "SELECT id FROM t WHERE ev = pv"},
			{SQL: "SELECT id FROM t WHERE pv = ev"},
			{SQL: "SELECT id FROM t WHERE es = 'x1' AND (ev + 1) IS NULL"},
			{SQL: "SELECT id FROM t WHERE pv"},
			{SQL: "SELECT id FROM t WHERE NOT pv"},
			{SQL: "SELECT id FROM t WHERE ev > 3 AND pv"},
			{SQL: "SELECT id FROM t WHERE (pv + 1) IS NULL"},
			{SQL: "SELECT es, COUNT(*) AS c FROM t GROUP BY es ORDER BY c LIMIT 2"},
			{SQL: "SELECT id FROM t WHERE ev > id * 2 + 10"},
			{SQL: "SELECT id FROM t WHERE ev & 4 = 4"},
			{SQL: "SELECT id FROM t WHERE lower_fn(es) = 'alice'"},
			{SQL: "SELECT id FROM t WHERE pv + ? > 2", Params: []sqldb.Value{sqldb.Int(1)}},
		},
	}}
	for _, prof := range trace.PaperProfiles() {
		apps = append(apps, trace.Generate(prof, 42))
	}
	apps = append(apps, trace.GenerateTrace(10, 0.005, 5)...)
	tpccApp := trace.App{Name: "TPC-C", Schema: tpcc.Schema()}
	g := tpcc.NewGenerator(tpcc.Config{Seed: 1})
	for _, c := range tpcc.Classes() {
		sql, params := g.ForClass(c)
		tpccApp.Queries = append(tpccApp.Queries, trace.Query{SQL: sql, Params: params})
	}
	apps = append(apps, tpccApp)

	refused := 0
	for _, app := range apps {
		live, err := proxy.New(sqldb.New(), proxy.Options{HOMBits: 256})
		if err != nil {
			t.Fatal(err)
		}
		trainer, err := proxy.NewTrainer()
		if err != nil {
			t.Fatal(err)
		}
		for _, ddl := range app.Schema {
			for _, p := range []*proxy.Proxy{live, trainer} {
				if _, err := p.Execute(ddl); err != nil {
					t.Fatalf("%s: %s: %v", app.Name, ddl, err)
				}
			}
		}
		for _, q := range app.Queries {
			before := len(trainer.TrainingLog())
			if _, err := trainer.Execute(q.SQL, q.Params...); err != nil {
				t.Errorf("%s: trainer: %s: %v", app.Name, q.SQL, err)
				continue
			}
			var warnings []string
			for _, ev := range trainer.TrainingLog()[before:] {
				if ev.Warning != "" {
					warnings = append(warnings, ev.Warning)
				}
			}
			_, err := live.Execute(q.SQL, q.Params...)
			switch {
			case err == nil && len(warnings) > 0:
				t.Errorf("%s: %s: runs on the proxy, but the trainer warned %q", app.Name, q.SQL, warnings)
			case err != nil && !containsAny(err.Error(), warnings):
				t.Errorf("%s: %s: the proxy refused it (%v), but the trainer logged %q", app.Name, q.SQL, err, warnings)
			case err != nil:
				refused++
			}
		}
	}
	if refused == 0 {
		t.Error("no statement was refused; the corpora hold shapes CryptDB cannot run")
	}
}

func containsAny(s string, subs []string) bool {
	for _, sub := range subs {
		if strings.Contains(s, sub) {
			return true
		}
	}
	return false
}
