package analysis

import (
	"testing"

	"repro/internal/workload/trace"
)

// TestAnalyzePaperApps pins each paper app's Figure 9 row, as
// "cryptdb-bench -fig 9" prints it.
func TestAnalyzePaperApps(t *testing.T) {
	want := map[string]Fig9Row{
		"phpBB": {App: "phpBB", TotalCols: 25, ConsiderEnc: 23, NeedsHOM: 1,
			AtRND: 21, AtDET: 1, AtOPE: 1, HighSensitive: 21, Onions: 69, Deferred: 67},
		"HotCRP": {App: "HotCRP", TotalCols: 24, ConsiderEnc: 22, NeedsHOM: 2, NeedsSEARCH: 1,
			AtRND: 18, AtSEARCH: 1, AtDET: 1, AtOPE: 2, HighSensitive: 18, Onions: 66, Deferred: 61},
		"grad-apply": {App: "grad-apply", TotalCols: 112, ConsiderEnc: 103, NeedsSEARCH: 2,
			AtRND: 93, AtSEARCH: 2, AtDET: 6, AtOPE: 2, HighSensitive: 93, Onions: 309, Deferred: 303},
		"OpenEMR": {App: "OpenEMR", TotalCols: 614, ConsiderEnc: 566, NeedsPlain: 7, NeedsSEARCH: 3,
			AtRND: 525, AtSEARCH: 3, AtDET: 12, AtOPE: 19, HighSensitive: 525, Onions: 1698, Deferred: 1672},
		"MIT-6.02": {App: "MIT-6.02", TotalCols: 15, ConsiderEnc: 13,
			AtRND: 7, AtDET: 4, AtOPE: 2, HighSensitive: 7, Onions: 39, Deferred: 37},
		"PHP-calendar": {App: "PHP-calendar", TotalCols: 13, ConsiderEnc: 12, NeedsPlain: 2, NeedsSEARCH: 2,
			AtRND: 3, AtSEARCH: 2, AtDET: 4, AtOPE: 1, HighSensitive: 3, Onions: 36, Deferred: 33},
	}
	for _, prof := range trace.PaperProfiles() {
		row, err := AnalyzeApp(trace.Generate(prof, 42))
		if err != nil {
			t.Fatalf("%s: %v", prof.Name, err)
		}
		if row != want[prof.Name] {
			t.Errorf("%s:\n got %+v\nwant %+v", prof.Name, row, want[prof.Name])
		}
	}
}

func TestAnalyzeTraceAggregate(t *testing.T) {
	apps := trace.GenerateTrace(8, 0.002, 7)
	rows, err := AnalyzeApps(apps)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's shape: the overwhelming majority of columns are
	// supported, most sit at RND, DET is the second-largest bucket, OPE is
	// the smallest of the three.
	want := Fig9Row{App: "trace", TotalCols: 285, ConsiderEnc: 259, NeedsPlain: 1, NeedsHOM: 2, NeedsSEARCH: 2,
		AtRND: 167, AtSEARCH: 2, AtDET: 72, AtOPE: 17, HighSensitive: 167, Onions: 777, Deferred: 756}
	if agg := Aggregate("trace", rows); agg != want {
		t.Errorf("\n got %+v\nwant %+v", agg, want)
	}
}

func TestTraceSchemaStats(t *testing.T) {
	apps := trace.GenerateTrace(5, 0.001, 3)
	s := trace.Stats(apps)
	if s.UsedColumns == 0 || s.Columns <= s.UsedColumns {
		t.Fatalf("stats = %+v", s)
	}
	if s.Databases <= s.UsedDatabases {
		t.Fatalf("stats = %+v", s)
	}
}
