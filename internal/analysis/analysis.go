// Package analysis reproduces the paper's functional and security analyses
// (§8.2, §8.3): it feeds application schemas and query sets through a
// CryptDB proxy in training mode and tabulates, per column, whether CryptDB
// can support the queries, which onions they require, and the steady-state
// MinEnc level — the machinery behind Figures 7 and 9.
package analysis

import (
	"fmt"

	"repro/internal/onion"
	"repro/internal/proxy"
	"repro/internal/sqldb"
	"repro/internal/workload/trace"
)

// Fig9Row is one row of Figure 9.
type Fig9Row struct {
	App           string
	TotalCols     int
	ConsiderEnc   int
	NeedsPlain    int
	NeedsHOM      int
	NeedsSEARCH   int
	AtRND         int
	AtSEARCH      int
	AtDET         int
	AtOPE         int
	HighSensitive int // columns at RND/HOM among considered
	// Onions counts the onions the considered columns declare besides Eq,
	// and Deferred how many of them the query set never needed: with no
	// a-priori plan the server holds no ciphertext of those at all.
	Onions, Deferred int
}

// AnalyzeApp runs one app's queries through a training-mode proxy and
// summarizes the steady-state onion levels.
func AnalyzeApp(app trace.App) (Fig9Row, error) {
	db := sqldb.New()
	p, err := proxy.New(db, proxy.Options{HOMBits: 256, Training: true})
	if err != nil {
		return Fig9Row{}, err
	}
	for _, ddl := range app.Schema {
		if _, err := p.Execute(ddl); err != nil {
			return Fig9Row{}, fmt.Errorf("analysis: %s schema: %w", app.Name, err)
		}
	}
	for _, q := range app.Queries {
		// Training mode records adjustments and warnings; execution
		// errors beyond analysis are not expected.
		if _, err := p.Execute(q.SQL, q.Params...); err != nil {
			return Fig9Row{}, fmt.Errorf("analysis: %s query %q: %w", app.Name, q.SQL, err)
		}
	}
	row := Summarize(p.Report())
	row.App = app.Name
	return row, nil
}

// Summarize tabulates column reports into a Figure 9 row.
func Summarize(reports []proxy.ColumnReport) Fig9Row {
	var row Fig9Row
	for _, r := range reports {
		row.TotalCols++
		if r.Plain {
			continue
		}
		row.ConsiderEnc++
		row.Deferred += len(r.Deferred)
		if n := len(r.Present) + len(r.Deferred); n > 0 {
			row.Onions += n - 1 // Eq is always present
		}
		if r.NeedsPlaintext {
			row.NeedsPlain++
			continue
		}
		if r.NeedsHOM {
			row.NeedsHOM++
		}
		if r.NeedsSEARCH {
			row.NeedsSEARCH++
		}
		switch r.MinEnc {
		case onion.RND, onion.HOM:
			row.AtRND++
			row.HighSensitive++
		case onion.SEARCH:
			row.AtSEARCH++
		case onion.DET, onion.JOIN:
			row.AtDET++
		case onion.OPE, onion.OPEJOIN:
			row.AtOPE++
		}
	}
	return row
}

// AnalyzeApps maps AnalyzeApp over a set of applications.
func AnalyzeApps(apps []trace.App) ([]Fig9Row, error) {
	rows := make([]Fig9Row, 0, len(apps))
	for _, a := range apps {
		r, err := AnalyzeApp(a)
		if err != nil {
			return nil, err
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// Aggregate sums rows into one (the trace row of Figure 9).
func Aggregate(name string, rows []Fig9Row) Fig9Row {
	out := Fig9Row{App: name}
	for _, r := range rows {
		out.TotalCols += r.TotalCols
		out.ConsiderEnc += r.ConsiderEnc
		out.NeedsPlain += r.NeedsPlain
		out.NeedsHOM += r.NeedsHOM
		out.NeedsSEARCH += r.NeedsSEARCH
		out.AtRND += r.AtRND
		out.AtSEARCH += r.AtSEARCH
		out.AtDET += r.AtDET
		out.AtOPE += r.AtOPE
		out.HighSensitive += r.HighSensitive
		out.Onions += r.Onions
		out.Deferred += r.Deferred
	}
	return out
}
