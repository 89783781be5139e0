package analysis

import (
	"slices"
	"testing"

	"repro/internal/onion"
	"repro/internal/proxy"
	"repro/internal/sqldb"
	"repro/internal/workload/tpcc"
	"repro/internal/workload/trace"
)

// TestAnalyzeTPCC runs the actual TPC-C query classes through the analysis
// pipeline (the Figure 9 TPC-C row) and through TrainPlan, and pins both.
func TestAnalyzeTPCC(t *testing.T) {
	app := trace.App{Name: "TPC-C", Schema: tpcc.Schema()}
	var queries []proxy.TrainQuery
	g := tpcc.NewGenerator(tpcc.Config{Seed: 1})
	for _, c := range tpcc.Classes() {
		sql, params := g.ForClass(c)
		app.Queries = append(app.Queries, trace.Query{SQL: sql, Params: params})
		queries = append(queries, proxy.TrainQuery{SQL: sql, Params: params})
	}
	row, err := AnalyzeApp(app)
	if err != nil {
		t.Fatal(err)
	}
	// The mix sums ol_amount and increments d_ytd (HOM), ranges over
	// s_quantity (OPE), and looks up and joins by key (DET/JOIN); RND
	// dominates (paper: 65/92).
	want := Fig9Row{App: "TPC-C", TotalCols: tpcc.ColumnCount, ConsiderEnc: tpcc.ColumnCount, NeedsHOM: 2,
		AtRND: 85, AtDET: 6, AtOPE: 1, HighSensitive: 85, Onions: 276, Deferred: 271}
	if row != want {
		t.Errorf("\n got %+v\nwant %+v", row, want)
	}

	plan, err := proxy.TrainPlan(tpcc.Schema(), queries)
	if err != nil {
		t.Fatal(err)
	}
	// Every other column keeps its Eq onion only.
	beyondEq := map[string][]onion.Onion{
		"customer.c_id":        {onion.Eq, onion.JAdj},
		"district.d_ytd":       {onion.Eq, onion.Add},
		"order_line.ol_amount": {onion.Eq, onion.Add},
		"orders.o_c_id":        {onion.Eq, onion.JAdj},
		"stock.s_quantity":     {onion.Eq, onion.Ord},
	}
	if len(plan) != tpcc.ColumnCount {
		t.Errorf("plan has %d columns, want %d", len(plan), tpcc.ColumnCount)
	}
	for col := range beyondEq {
		if _, ok := plan[col]; !ok {
			t.Errorf("plan has no entry for %s", col)
		}
	}
	for col, got := range plan {
		want, ok := beyondEq[col]
		if !ok {
			want = []onion.Onion{onion.Eq}
		}
		if !slices.Equal(got, want) {
			t.Errorf("plan[%s] = %v, want %v", col, got, want)
		}
	}
}

// TestSummarizeBuckets checks the MinEnc bucketing logic directly.
func TestSummarizeBuckets(t *testing.T) {
	_ = sqldb.Value{} // keep import for symmetry with sibling tests
	rows, err := AnalyzeApps([]trace.App{trace.Generate(trace.Profile{
		Name: "tiny", None: 2, Det: 1, Ope: 1, Search: 1, Hom: 1, Plain: 1,
	}, 3)})
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.ConsiderEnc != 7 || r.NeedsPlain != 1 || r.AtDET != 1 || r.AtOPE != 1 || r.AtSEARCH != 1 {
		t.Fatalf("row = %+v", r)
	}
	agg := Aggregate("agg", rows)
	if agg.ConsiderEnc != r.ConsiderEnc {
		t.Fatalf("aggregate mismatch: %+v", agg)
	}
}
