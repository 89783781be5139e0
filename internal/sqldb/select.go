package sqldb

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/sqlparser"
)

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
	atomic.AddInt64(&db.compiledSel, 1)
	return cp.run()
}

// selectScope binds the FROM tables as txn sees them (txn may be nil), or
// the feeds when given, into a scope and collects the aggregate calls of the
// projection, HAVING and ORDER BY — what makes a SELECT grouped, which the
// index fast paths need to know up front.
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

	if len(s.GroupBy) == 0 {
		if len(aggCalls) > 0 {
			if res, ok, err := db.tryIndexMinMax(s, sc); ok {
				return res, err
			}
		} else if res, ok, err := db.tryOrderedSelect(s, sc, params); ok {
			return res, err
		}
	}

	// General path: resolve and lower the statement into the compiled
	// operator pipeline (compile.go / exec.go). The index fast paths above
	// count separately (orderedScans / minMaxFast).
	cp, err := db.compileSelect(s, sc, aggCalls, params)
	if err != nil {
		return nil, err
	}
	atomic.AddInt64(&db.compiledSel, 1)
	return cp.run()
}

// tryOrderedSelect serves single-table, non-aggregate SELECTs whose ORDER
// BY is one indexed column straight from the ordered index: rows stream out
// in index order (no materialize-then-sort), a sargable range on the same
// column bounds the walk, and a LIMIT terminates it early (§3.3: ORDER BY,
// LIMIT run on OPE ciphertexts using ordinary ordered indexes). Returns
// ok=false to fall back to the general path, as it does for a table the
// reading transaction has written: the index orders committed rows only.
func (db *DB) tryOrderedSelect(s *sqlparser.SelectStmt, sc *scope, params []Value) (*Result, bool, error) {
	if len(sc.tabs) != 1 || sc.tabs[0].ws != nil || s.Having != nil || len(s.OrderBy) != 1 {
		return nil, false, nil
	}
	items := db.resolveOrderBy(s)
	cr, ok := items[0].Expr.(*sqlparser.ColRef)
	if !ok {
		return nil, false, nil
	}
	ti, pos, err := sc.resolve(cr.Table, cr.Column)
	if err != nil || ti != 0 {
		return nil, false, nil
	}
	t := sc.tabs[0].t
	col := t.Cols[pos].Name
	ix := t.ordIndexes[col]
	if ix == nil {
		return nil, false, nil
	}
	if _, homogeneous := ix.soleKind(); !homogeneous {
		return nil, false, nil
	}

	// Bound the walk with any sargable constraints on the ORDER BY column;
	// other conjuncts filter row by row below.
	conj := conjuncts(s.Where)
	rng := ordRange{all: true}
	if b := db.sargBounds(conj, sc, 0, params)[col]; b != nil {
		if b.bad {
			return nil, false, nil // a scan preserves evaluation errors
		}
		if b.impossible {
			rng = ordRange{empty: true}
		} else if r, ok := ix.rangeFor(b); ok {
			rng = r
		} else {
			return nil, false, nil
		}
	}

	rowc := &exprCompiler{db: db, sc: sc}
	var where compiledExpr
	if s.Where != nil {
		if where, err = rowc.compile(s.Where); err != nil {
			return nil, true, err
		}
	}
	cols, proj, err := rowc.compileProjection(s)
	if err != nil {
		return nil, true, err
	}

	// With a LIMIT (and no DISTINCT collapsing rows afterwards), stop as
	// soon as offset+limit rows matched.
	want := -1
	if s.Limit != nil && !s.Distinct {
		want = int(*s.Limit)
		if s.Offset != nil {
			want += int(*s.Offset)
		}
	}

	res := &Result{Columns: cols}
	tup := make(tuple, 1)
	ev := &execEnv{tup: tup, params: params}
	var walkErr error
	visit := func(n *ordNode) bool {
		for _, slot := range n.slots {
			row := t.rowAt(slot)
			if row == nil {
				continue
			}
			tup[0] = row
			if where != nil {
				v, err := where(ev)
				if err != nil {
					walkErr = err
					return false
				}
				if !v.Truthy() {
					continue
				}
			}
			out := make([]Value, len(proj))
			if err := evalProjection(proj, ev, out); err != nil {
				walkErr = err
				return false
			}
			res.Rows = append(res.Rows, out)
			if want >= 0 && len(res.Rows) >= want {
				return false
			}
		}
		return true
	}
	if items[0].Desc {
		ix.descendRange(rng, visit)
	} else {
		ix.ascendRange(rng, visit)
	}
	if walkErr != nil {
		return nil, true, walkErr
	}
	atomic.AddInt64(&db.orderedScans, 1)
	if s.Distinct {
		res.Rows = dedupRows(res.Rows)
	}
	res.Rows = applyLimit(res.Rows, s.Limit, s.Offset)
	return res, true, nil
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
	atomic.AddInt64(&db.minMaxFast, 1)
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

func applyLimit(rows [][]Value, limit, offset *int64) [][]Value {
	if offset != nil {
		if int(*offset) >= len(rows) {
			return nil
		}
		rows = rows[*offset:]
	}
	if limit != nil && int(*limit) < len(rows) {
		rows = rows[:*limit]
	}
	return rows
}
