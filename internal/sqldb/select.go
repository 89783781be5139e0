package sqldb

import (
	"fmt"
	"time"

	"repro/internal/sqlparser"
)

// This file is where a SELECT enters: execSelect and SelectFeeds bind the
// FROM entries into a scope and hand the statement to the compiled
// pipeline (compile.go, exec.go), which runs every SELECT — an
// index-ordered ORDER BY ... LIMIT too, as one of its access paths. The one
// shortcut beside it is tryIndexMinMax, which answers MIN/MAX from
// ordered-index endpoints without reading a row. The helpers the pipeline
// and the test interpreter share (projection expansion, ORDER BY aliases,
// DISTINCT, LIMIT) live here as well.

// Feed is a row set bound to one FROM entry in place of a stored table:
// Columns names the positions of every row.
type Feed struct {
	Columns []string
	Rows    [][]Value
}

// SelectFeeds runs s through the compiled pipeline with FROM entry i bound
// to feeds[i]. The rows are scanned where they lie — never copied into a
// table, never indexed — and a hash join builds over them like over any
// pruned access path. UDFs and plan counters are this database's. A sharded
// store finishes every cross-shard SELECT this way, on shard 0, over the
// rows its shards returned.
func (db *DB) SelectFeeds(s *sqlparser.SelectStmt, feeds []Feed, params ...Value) (*Result, error) {
	if len(feeds) != len(s.From) {
		return nil, fmt.Errorf("sqldb: %d feeds for %d FROM entries", len(feeds), len(s.From))
	}
	defer db.trackBusy(time.Now())
	// db.mu guards only the UDF registries here, which compiling resolves
	// into the plan: the run reads the caller's rows, so writers to this
	// database do not wait for it.
	db.mu.RLock()
	sc, aggCalls, err := db.selectScope(nil, s, feeds)
	var cp *compiledSelect
	if err == nil {
		cp, err = db.compileSelect(s, sc, aggCalls, params)
	}
	db.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	db.compiledSel.Add(1)
	return cp.run()
}

// selectScope binds the FROM tables as txn sees them (txn may be nil), or
// the feeds when given, into a scope and collects the aggregate calls of the
// projection, HAVING and ORDER BY — what makes a SELECT grouped, which the
// MIN/MAX endpoint shortcut needs to know up front.
func (db *DB) selectScope(txn *Txn, s *sqlparser.SelectStmt, feeds []Feed) (*scope, []*sqlparser.FuncCall, error) {
	sc := &scope{}
	for i, ref := range s.From {
		if feeds != nil {
			sc.addFeed(ref, &feeds[i])
			continue
		}
		t, ok := db.tables[ref.Table]
		if !ok {
			return nil, nil, fmt.Errorf("sqldb: no table %s", ref.Table)
		}
		sc.addTxnTable(ref.Alias, t, txn)
	}
	var aggCalls []*sqlparser.FuncCall
	for _, se := range s.Exprs {
		if !se.Star {
			collectAggCalls(db, se.Expr, &aggCalls)
		}
	}
	if s.Having != nil {
		collectAggCalls(db, s.Having, &aggCalls)
	}
	for _, o := range s.OrderBy {
		collectAggCalls(db, o.Expr, &aggCalls)
	}
	return sc, aggCalls, nil
}

// execSelect runs s over the tables as txn sees them; txn is nil outside a
// transaction. Callers hold db.mu's read side.
func (db *DB) execSelect(txn *Txn, s *sqlparser.SelectStmt, params []Value) (*Result, error) {
	sc, aggCalls, err := db.selectScope(txn, s, nil)
	if err != nil {
		return nil, err
	}

	if len(s.GroupBy) == 0 && len(aggCalls) > 0 {
		if res, ok, err := db.tryIndexMinMax(s, sc); ok {
			return res, err
		}
	}

	// Resolve and lower the statement into the compiled operator pipeline
	// (compile.go / exec.go); an index-ordered walk is one of its access
	// paths. The endpoint shortcut above counts separately (minMaxFast).
	cp, err := db.compileSelect(s, sc, aggCalls, params)
	if err != nil {
		return nil, err
	}
	db.compiledSel.Add(1)
	return cp.run()
}

// tryIndexMinMax answers `SELECT MIN(col) / MAX(col) FROM t` projections
// from the endpoints of ordered indexes without touching any row (§3.3:
// MIN/MAX run on OPE ciphertexts). Returns ok=false to fall back, as it does
// for a table the reading transaction has written.
func (db *DB) tryIndexMinMax(s *sqlparser.SelectStmt, sc *scope) (*Result, bool, error) {
	if len(sc.tabs) != 1 || sc.tabs[0].ws != nil || s.Where != nil || s.Having != nil || len(s.OrderBy) != 0 {
		return nil, false, nil
	}
	t := sc.tabs[0].t
	// Every select expression is a bare MIN/MAX call, so the output row is
	// the endpoint values in select-list order.
	row := make([]Value, 0, len(s.Exprs))
	for _, se := range s.Exprs {
		if se.Star {
			return nil, false, nil
		}
		fc, ok := se.Expr.(*sqlparser.FuncCall)
		if !ok || (fc.Name != "MIN" && fc.Name != "MAX") || fc.Star || fc.Distinct || len(fc.Args) != 1 {
			return nil, false, nil
		}
		cr, ok := fc.Args[0].(*sqlparser.ColRef)
		if !ok {
			return nil, false, nil
		}
		ti, pos, err := sc.resolve(cr.Table, cr.Column)
		if err != nil || ti != 0 {
			return nil, false, nil
		}
		ix := t.ordIndexes[t.Cols[pos].Name]
		if ix == nil {
			return nil, false, nil
		}
		if _, homogeneous := ix.soleKind(); !homogeneous {
			return nil, false, nil
		}
		var n *ordNode
		if fc.Name == "MIN" {
			n = ix.minNonNull()
		} else {
			n = ix.maxNonNull()
		}
		v := Null()
		if n != nil {
			v = n.val
		}
		row = append(row, v)
	}

	cols, _, err := db.projectionPlan(s, sc)
	if err != nil {
		return nil, true, err
	}
	db.minMaxFast.Add(1)
	res := &Result{Columns: cols, Rows: [][]Value{row}}
	if s.Distinct {
		res.Rows = dedupRows(res.Rows)
	}
	res.Rows = applyLimit(res.Rows, s.Limit, s.Offset)
	return res, true, nil
}

// conjuncts splits an expression on top-level ANDs.
func conjuncts(e sqlparser.Expr) []sqlparser.Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*sqlparser.BinaryExpr); ok && b.Op == "AND" {
		return append(conjuncts(b.L), conjuncts(b.R)...)
	}
	return []sqlparser.Expr{e}
}

// isConstant reports whether e involves no column references or aggregates.
func isConstant(e sqlparser.Expr) bool {
	switch x := e.(type) {
	case *sqlparser.IntLit, *sqlparser.StrLit, *sqlparser.BytesLit,
		*sqlparser.NullLit, *sqlparser.BoolLit, *sqlparser.Param:
		return true
	case *sqlparser.UnaryExpr:
		return isConstant(x.E)
	case *sqlparser.BinaryExpr:
		return isConstant(x.L) && isConstant(x.R)
	}
	return false
}

// resolveOrderBy substitutes select-list aliases into ORDER BY items.
func (db *DB) resolveOrderBy(s *sqlparser.SelectStmt) []sqlparser.OrderItem {
	out := make([]sqlparser.OrderItem, len(s.OrderBy))
	copy(out, s.OrderBy)
	for i, item := range out {
		cr, ok := item.Expr.(*sqlparser.ColRef)
		if !ok || cr.Table != "" {
			continue
		}
		for _, se := range s.Exprs {
			if !se.Star && se.Alias == cr.Column {
				out[i].Expr = se.Expr
				break
			}
		}
	}
	return out
}

// compareForSort orders values with NULLs first and cross-kind values by
// kind, so sorting never fails.
func compareForSort(a, b Value) int {
	if a.IsNull() && b.IsNull() {
		return 0
	}
	if a.IsNull() {
		return -1
	}
	if b.IsNull() {
		return 1
	}
	if c, err := a.Compare(b); err == nil {
		return c
	}
	return cmpInt(int64(a.Kind), int64(b.Kind))
}

// projectionPlan expands stars and returns output column names plus the
// expression list to evaluate per row.
func (db *DB) projectionPlan(s *sqlparser.SelectStmt, sc *scope) ([]string, []sqlparser.Expr, error) {
	var cols []string
	var exprs []sqlparser.Expr
	for _, se := range s.Exprs {
		if se.Star {
			for _, st := range sc.tabs {
				for _, c := range st.t.Cols {
					cols = append(cols, c.Name)
					exprs = append(exprs, &sqlparser.ColRef{Table: st.alias, Column: c.Name})
				}
			}
			continue
		}
		if cr, ok := se.Expr.(*sqlparser.ColRef); ok && cr.Column == "*" && cr.Table != "" {
			// t.* expansion.
			found := false
			for _, st := range sc.tabs {
				if st.alias == cr.Table || st.t.Name == cr.Table {
					for _, c := range st.t.Cols {
						cols = append(cols, c.Name)
						exprs = append(exprs, &sqlparser.ColRef{Table: st.alias, Column: c.Name})
					}
					found = true
					break
				}
			}
			if !found {
				return nil, nil, fmt.Errorf("sqldb: no table %s for %s.*", cr.Table, cr.Table)
			}
			continue
		}
		name := se.Alias
		if name == "" {
			if cr, ok := se.Expr.(*sqlparser.ColRef); ok {
				name = cr.Column
			} else {
				name = se.Expr.String()
			}
		}
		cols = append(cols, name)
		exprs = append(exprs, se.Expr)
	}
	return cols, exprs, nil
}

func dedupRows(rows [][]Value) [][]Value {
	seen := make(map[string]bool, len(rows))
	out := rows[:0]
	for _, r := range rows {
		key := ""
		for _, v := range r {
			key += v.Key() + "\x1f"
		}
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, r)
	}
	return out
}

// applyLimit cuts rows to the LIMIT/OFFSET window, comparing in int64 so a
// bound past the int range of a 32-bit build is not truncated.
func applyLimit(rows [][]Value, limit, offset *int64) [][]Value {
	if offset != nil {
		if *offset >= int64(len(rows)) {
			return nil
		}
		rows = rows[*offset:]
	}
	if limit != nil && *limit < int64(len(rows)) {
		rows = rows[:*limit]
	}
	return rows
}
