package analysis

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"sort"
	"testing"

	"repro/internal/proxy"
	"repro/internal/workload/tpcc"
	"repro/internal/workload/trace"
)

// TestTrainingOutputDigest pins, by digest, what a trainer records over the
// Figure 9 corpora (the six paper apps, TPC-C and the scaled trace that
// "cryptdb-bench -fig 9" prints): every TrainingLog event in order, the
// Report, and the derived plan. A reordered, reworded, added or dropped
// training event fails here by name, where the Fig9Row pins would not see it.
func TestTrainingOutputDigest(t *testing.T) {
	var apps []trace.App
	for _, prof := range trace.PaperProfiles() {
		apps = append(apps, trace.Generate(prof, 42))
	}
	tpccApp := trace.App{Name: "TPC-C", Schema: tpcc.Schema()}
	g := tpcc.NewGenerator(tpcc.Config{Seed: 1})
	for _, c := range tpcc.Classes() {
		sql, params := g.ForClass(c)
		tpccApp.Queries = append(tpccApp.Queries, trace.Query{SQL: sql, Params: params})
	}
	apps = append(apps, tpccApp)
	apps = append(apps, trace.GenerateTrace(10, 0.005, 5)...)

	logH, reportH, planH := sha256.New(), sha256.New(), sha256.New()
	events := 0
	for _, app := range apps {
		p, err := proxy.NewTrainer()
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range app.Schema {
			if _, err := p.Execute(s); err != nil {
				t.Fatalf("%s: %s: %v", app.Name, s, err)
			}
		}
		for _, q := range app.Queries {
			if _, err := p.Execute(q.SQL, q.Params...); err != nil {
				t.Fatalf("%s: %s: %v", app.Name, q.SQL, err)
			}
		}
		for _, ev := range p.TrainingLog() {
			fmt.Fprintf(logH, "%s|%s.%s|%s|%s|%s\n", app.Name, ev.Table, ev.Column, ev.Onion, ev.Layer, ev.Warning)
			events++
		}
		for _, r := range p.Report() {
			fmt.Fprintf(reportH, "%s|%+v\n", app.Name, r)
		}
		plan := p.DerivePlan()
		cols := make([]string, 0, len(plan))
		for c := range plan {
			cols = append(cols, c)
		}
		sort.Strings(cols)
		for _, c := range cols {
			fmt.Fprintf(planH, "%s|%s|%v\n", app.Name, c, plan[c])
		}
	}
	for _, c := range []struct {
		name string
		h    hash.Hash
		want string
	}{
		{"TrainingLog", logH, "0ed42486229e5adaee24d11c9a2ce6d2bb29873665ad224875aa4e7e2a535f0c"},
		{"Report", reportH, "fd960286a5aabc5e5a55a2bd07ef97d888f5f493473ddd2bb83d69e387aa3883"},
		{"DerivePlan", planH, "875b3f4faad0831d863adbc4660003f202b67ea1cbed6ced0eec431459f30824"},
	} {
		if got := fmt.Sprintf("%x", c.h.Sum(nil)); got != c.want {
			t.Errorf("%s digest over %d apps = %s, want %s", c.name, len(apps), got, c.want)
		}
	}
	if events == 0 {
		t.Fatal("the trainers logged nothing")
	}
}
