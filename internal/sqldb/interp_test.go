package sqldb

// This file is the reference executor the equivalence tests compare the
// compiled pipeline (compile.go / exec.go) against: a row-at-a-time AST
// interpreter built on evalCtx.eval, with none of the pipeline's machinery —
// no lowering, no batches, no hash joins beyond a single-column index probe,
// no index fast paths. It was the production fallback until the compiler
// covered every statement shape; it lives under _test so the server binary
// carries one SELECT engine. Tests reach it through interpretSelect only.

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/sqlparser"
)

// interpretSelect executes s on db with the AST interpreter. Statement-shape
// errors (unknown column, aggregate in WHERE, ...) surface only when a row
// reaches the offending expression, unlike the compiled front end, which
// rejects them up front; on well-formed statements the two must agree row
// for row.
func interpretSelect(db *DB, s *sqlparser.SelectStmt, params []Value) (*Result, error) {
	return db.readStatement(func() (*Result, error) {
		db.mu.RLock()
		defer db.mu.RUnlock()
		sc, aggCalls, err := db.selectScope(nil, s, nil)
		if err != nil {
			return nil, err
		}
		tuples, err := db.produceTuples(s, sc, params)
		if err != nil {
			return nil, err
		}
		if len(s.GroupBy) > 0 || len(aggCalls) > 0 {
			return db.selectGrouped(s, sc, tuples, aggCalls, params)
		}
		return db.selectPlain(s, sc, tuples, params)
	})
}

// interpretSQL parses a SELECT and runs it through interpretSelect.
func interpretSQL(t *testing.T, db *DB, sql string, params ...Value) (*Result, error) {
	t.Helper()
	st, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	sel, ok := st.(*sqlparser.SelectStmt)
	if !ok {
		t.Fatalf("%s: not a SELECT", sql)
	}
	return interpretSelect(db, sel, params)
}

// bindAggs returns e with every aggregate call that has a finalized value in
// agg replaced by that value as a literal. evalCtx.eval knows only row
// context (an aggregate call there is an error), so a group's projection,
// HAVING and ORDER BY expressions are bound to the group's aggregates
// before they are evaluated.
func bindAggs(e sqlparser.Expr, agg map[string]Value) sqlparser.Expr {
	if len(agg) == 0 {
		return e
	}
	list := func(in []sqlparser.Expr) []sqlparser.Expr {
		out := make([]sqlparser.Expr, len(in))
		for i, x := range in {
			out[i] = bindAggs(x, agg)
		}
		return out
	}
	switch x := e.(type) {
	case *sqlparser.FuncCall:
		if v, ok := agg[x.String()]; ok {
			switch v.Kind {
			case KindInt:
				return &sqlparser.IntLit{V: v.I}
			case KindText:
				return &sqlparser.StrLit{V: v.S}
			case KindBlob:
				return &sqlparser.BytesLit{V: v.B}
			}
			return &sqlparser.NullLit{}
		}
		return &sqlparser.FuncCall{Name: x.Name, Star: x.Star, Distinct: x.Distinct, Args: list(x.Args)}
	case *sqlparser.BinaryExpr:
		return &sqlparser.BinaryExpr{Op: x.Op, L: bindAggs(x.L, agg), R: bindAggs(x.R, agg)}
	case *sqlparser.UnaryExpr:
		return &sqlparser.UnaryExpr{Op: x.Op, E: bindAggs(x.E, agg)}
	case *sqlparser.InExpr:
		return &sqlparser.InExpr{E: bindAggs(x.E, agg), List: list(x.List), Not: x.Not}
	case *sqlparser.LikeExpr:
		return &sqlparser.LikeExpr{E: bindAggs(x.E, agg), Pattern: bindAggs(x.Pattern, agg), Not: x.Not}
	case *sqlparser.BetweenExpr:
		return &sqlparser.BetweenExpr{E: bindAggs(x.E, agg), Lo: bindAggs(x.Lo, agg), Hi: bindAggs(x.Hi, agg), Not: x.Not}
	case *sqlparser.IsNullExpr:
		return &sqlparser.IsNullExpr{E: bindAggs(x.E, agg), Not: x.Not}
	}
	return e
}

// produceTuples evaluates the FROM clause (joins) and the WHERE filter.
// Access paths are planned per table: hash indexes serve equality
// predicates and equijoin probes, ordered indexes serve range predicates,
// and a comma join seeds from the most selective table.
func (db *DB) produceTuples(s *sqlparser.SelectStmt, sc *scope, params []Value) ([]tuple, error) {
	if len(s.From) == 0 {
		// SELECT without FROM: one empty tuple, then WHERE.
		one := []tuple{nil}
		return db.filterWhere(s, sc, one, params)
	}

	conj := conjuncts(s.Where)

	// Access paths are planned lazily: costing a range access walks the
	// ordered index, and tables reached through equijoin probes may never
	// consult their own path at all. Only a comma join (which may reorder
	// around the most selective table) needs every cost up front.
	accesses := make([]access, len(sc.tabs))
	planned := make([]bool, len(sc.tabs))
	accessFor := func(ti int) access {
		if !planned[ti] {
			accesses[ti] = db.bestAccess(sc.tabs[ti].t, sc, ti, conj, params)
			planned[ti] = true
		}
		return accesses[ti]
	}
	commaJoin := len(sc.tabs) > 1
	for _, ref := range s.From {
		if ref.JoinOn != nil {
			commaJoin = false
			break
		}
	}
	order := make([]int, len(sc.tabs))
	for i := range order {
		order[i] = i
	}
	if commaJoin {
		for ti := range sc.tabs {
			accessFor(ti)
		}
		order = joinOrder(s, accesses)
	}

	// Seed from the first table in join order.
	seed := order[0]
	var tuples []tuple
	accessFor(seed).iterate(sc.tabs[seed].t, func(_ int, row []Value) bool {
		tup := make(tuple, len(sc.tabs))
		tup[seed] = row
		tuples = append(tuples, tup)
		return true
	})

	// Join each remaining table in join order.
	placed := make([]bool, len(sc.tabs))
	placed[seed] = true
	for k := 1; k < len(order); k++ {
		ti := order[k]
		ref := s.From[ti]
		st := sc.tabs[ti]

		// A probe comes from an ON conjunct (`earlier.col = new.col`) or,
		// for comma joins, from an equivalent WHERE conjunct. When the
		// probe is the entire ON clause the probed rows already satisfy
		// it; otherwise the full ON filter is applied to each match.
		onConj := conjuncts(ref.JoinOn)
		probe, probeCol, probeOK := db.joinProbe(onConj, sc, ti)
		probeIsOn := probeOK && len(onConj) == 1
		if !probeOK {
			probe, probeCol, probeOK = db.whereProbe(conj, sc, ti, placed)
		}

		onFilter := func(nt tuple) (bool, error) {
			if ref.JoinOn == nil {
				return true, nil
			}
			ctx := &evalCtx{db: db, scope: sc, tup: nt, params: params}
			v, err := ctx.eval(ref.JoinOn)
			if err != nil {
				return false, err
			}
			return v.Truthy(), nil
		}

		var next []tuple
		for _, tup := range tuples {
			if probeOK {
				ctx := &evalCtx{db: db, scope: sc, tup: tup, params: params}
				v, err := ctx.eval(probe)
				if err != nil {
					return nil, err
				}
				if slots, has := st.t.lookup(probeCol, v); has {
					for _, slot := range slots {
						nt := cloneTuple(tup)
						nt[ti] = st.t.rowAt(slot)
						if !probeIsOn {
							keep, err := onFilter(nt)
							if err != nil {
								return nil, err
							}
							if !keep {
								continue
							}
						}
						next = append(next, nt)
					}
					continue
				}
			}
			// Fall back to a nested loop over the table's own access path
			// (its sargable predicates, or a scan) with the ON filter.
			var scanErr error
			accessFor(ti).iterate(st.t, func(_ int, row []Value) bool {
				nt := cloneTuple(tup)
				nt[ti] = row
				keep, err := onFilter(nt)
				if err != nil {
					scanErr = err
					return false
				}
				if keep {
					next = append(next, nt)
				}
				return true
			})
			if scanErr != nil {
				return nil, scanErr
			}
		}
		tuples = next
		placed[ti] = true
	}

	return db.filterWhere(s, sc, tuples, params)
}

func (db *DB) filterWhere(s *sqlparser.SelectStmt, sc *scope, tuples []tuple, params []Value) ([]tuple, error) {
	if s.Where == nil {
		return tuples, nil
	}
	out := tuples[:0]
	for _, tup := range tuples {
		ctx := &evalCtx{db: db, scope: sc, tup: tup, params: params}
		v, err := ctx.eval(s.Where)
		if err != nil {
			return nil, err
		}
		if v.Truthy() {
			out = append(out, tup)
		}
	}
	return out, nil
}

func cloneTuple(t tuple) tuple {
	nt := make(tuple, len(t))
	copy(nt, t)
	return nt
}

// joinProbe scans the ON conjuncts for equalities of the form
// `earlier.col = new.col` and returns the first whose new-table side is
// indexed: the expression to evaluate against earlier tables and the probe
// column on the new table. A multi-column equi key is probed on that one
// column and the rest filtered per pair (the compiled hash join uses the
// full key).
func (db *DB) joinProbe(onConj []sqlparser.Expr, sc *scope, ti int) (sqlparser.Expr, string, bool) {
	newTable := sc.tabs[ti].t
	side := func(e sqlparser.Expr) (int, string, bool) {
		cr, ok := e.(*sqlparser.ColRef)
		if !ok {
			return 0, "", false
		}
		cti, _, err := sc.resolve(cr.Table, cr.Column)
		if err != nil {
			return 0, "", false
		}
		return cti, cr.Column, true
	}
	for _, pred := range onConj {
		b, ok := pred.(*sqlparser.BinaryExpr)
		if !ok || b.Op != "=" {
			continue
		}
		lt, lc, lok := side(b.L)
		rt, rc, rok := side(b.R)
		if !lok || !rok {
			continue
		}
		switch {
		case lt == ti && rt < ti:
			if _, has := newTable.indexes[lc]; has {
				return b.R, lc, true
			}
		case rt == ti && lt < ti:
			if _, has := newTable.indexes[rc]; has {
				return b.L, rc, true
			}
		}
	}
	return nil, "", false
}

//
// Plain (non-aggregate) SELECT.
//

func (db *DB) selectPlain(s *sqlparser.SelectStmt, sc *scope, tuples []tuple, params []Value) (*Result, error) {
	// ORDER BY over raw tuples so it can reference non-projected columns.
	if len(s.OrderBy) > 0 {
		if err := db.sortTuples(s, sc, tuples, params); err != nil {
			return nil, err
		}
	}

	cols, projExprs, err := db.projectionPlan(s, sc)
	if err != nil {
		return nil, err
	}

	res := &Result{Columns: cols}
	for _, tup := range tuples {
		row, err := db.projectRow(projExprs, sc, tup, params, nil)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}

	if s.Distinct {
		res.Rows = dedupRows(res.Rows)
	}
	res.Rows = applyLimit(res.Rows, s.Limit, s.Offset)
	return res, nil
}

// sortTuples sorts tuples in place per ORDER BY, resolving aliases to their
// select expressions.
func (db *DB) sortTuples(s *sqlparser.SelectStmt, sc *scope, tuples []tuple, params []Value) error {
	items := db.resolveOrderBy(s)
	var sortErr error
	sort.SliceStable(tuples, func(i, j int) bool {
		for _, item := range items {
			ci := &evalCtx{db: db, scope: sc, tup: tuples[i], params: params}
			cj := &evalCtx{db: db, scope: sc, tup: tuples[j], params: params}
			vi, err := ci.eval(item.Expr)
			if err != nil {
				sortErr = err
				return false
			}
			vj, err := cj.eval(item.Expr)
			if err != nil {
				sortErr = err
				return false
			}
			c := compareForSort(vi, vj)
			if c == 0 {
				continue
			}
			if item.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	return sortErr
}

// whereProbe finds a WHERE equijoin conjunct `placed.col = new.col` whose
// new-table side is hash-indexed, so a comma join can probe instead of
// building a cross product. It returns the expression to evaluate against
// the already-placed tables and the probe column of table ti.
func (db *DB) whereProbe(conj []sqlparser.Expr, sc *scope, ti int, placed []bool) (sqlparser.Expr, string, bool) {
	for _, pred := range conj {
		b, ok := pred.(*sqlparser.BinaryExpr)
		if !ok || b.Op != "=" {
			continue
		}
		side := func(e sqlparser.Expr) (int, string, bool) {
			cr, ok := e.(*sqlparser.ColRef)
			if !ok {
				return 0, "", false
			}
			cti, _, err := sc.resolve(cr.Table, cr.Column)
			if err != nil {
				return 0, "", false
			}
			return cti, cr.Column, true
		}
		lt, lc, lok := side(b.L)
		rt, rc, rok := side(b.R)
		if !lok || !rok {
			continue
		}
		t := sc.tabs[ti].t
		switch {
		case lt == ti && rt != ti && placed[rt]:
			if _, has := t.indexes[lc]; has {
				return b.R, lc, true
			}
		case rt == ti && lt != ti && placed[lt]:
			if _, has := t.indexes[rc]; has {
				return b.L, rc, true
			}
		}
	}
	return nil, "", false
}

func (db *DB) projectRow(exprs []sqlparser.Expr, sc *scope, tup tuple, params []Value, agg map[string]Value) ([]Value, error) {
	row := make([]Value, len(exprs))
	for i, e := range exprs {
		ctx := &evalCtx{db: db, scope: sc, tup: tup, params: params}
		v, err := ctx.eval(bindAggs(e, agg))
		if err != nil {
			return nil, err
		}
		row[i] = v
	}
	return row, nil
}

//
// Grouped / aggregate SELECT.
//

type group struct {
	first tuple
	accs  []aggAcc
	key   string
	// keyVals caches the GROUP BY values for ordering.
}

func (db *DB) selectGrouped(s *sqlparser.SelectStmt, sc *scope, tuples []tuple, aggCalls []*sqlparser.FuncCall, params []Value) (*Result, error) {
	// Deduplicate aggregate calls by their printed form.
	uniq := make(map[string]int)
	var calls []*sqlparser.FuncCall
	for _, fc := range aggCalls {
		if _, ok := uniq[fc.String()]; !ok {
			uniq[fc.String()] = len(calls)
			calls = append(calls, fc)
		}
	}

	groups := make(map[string]*group)
	var order []string
	for _, tup := range tuples {
		ctx := &evalCtx{db: db, scope: sc, tup: tup, params: params}
		key := ""
		for _, g := range s.GroupBy {
			v, err := ctx.eval(g)
			if err != nil {
				return nil, err
			}
			key += v.Key() + "\x1f"
		}
		gr, ok := groups[key]
		if !ok {
			gr = &group{first: tup, key: key}
			for _, fc := range calls {
				acc, err := db.newAggAcc(fc)
				if err != nil {
					return nil, err
				}
				gr.accs = append(gr.accs, acc)
			}
			groups[key] = gr
			order = append(order, key)
		}
		for _, acc := range gr.accs {
			if err := acc.step(ctx); err != nil {
				return nil, err
			}
		}
	}

	// Aggregate query over zero rows with no GROUP BY yields one group
	// (COUNT(*) = 0 etc.).
	if len(groups) == 0 && len(s.GroupBy) == 0 {
		gr := &group{first: nil, key: ""}
		for _, fc := range calls {
			acc, err := db.newAggAcc(fc)
			if err != nil {
				return nil, err
			}
			gr.accs = append(gr.accs, acc)
		}
		groups[""] = gr
		order = append(order, "")
	}

	cols, projExprs, err := db.projectionPlan(s, sc)
	if err != nil {
		return nil, err
	}

	type groupRow struct {
		gr  *group
		agg map[string]Value
	}
	var gRows []groupRow
	for _, key := range order {
		gr := groups[key]
		aggVals := make(map[string]Value, len(calls))
		for i, fc := range calls {
			v, err := gr.accs[i].final()
			if err != nil {
				return nil, err
			}
			aggVals[fc.String()] = v
		}
		if s.Having != nil {
			ctx := &evalCtx{db: db, scope: sc, tup: gr.first, params: params}
			hv, err := ctx.eval(bindAggs(s.Having, aggVals))
			if err != nil {
				return nil, err
			}
			if !hv.Truthy() {
				continue
			}
		}
		gRows = append(gRows, groupRow{gr: gr, agg: aggVals})
	}

	// ORDER BY over groups.
	if len(s.OrderBy) > 0 {
		items := db.resolveOrderBy(s)
		var sortErr error
		sort.SliceStable(gRows, func(i, j int) bool {
			for _, item := range items {
				ci := &evalCtx{db: db, scope: sc, tup: gRows[i].gr.first, params: params}
				cj := &evalCtx{db: db, scope: sc, tup: gRows[j].gr.first, params: params}
				vi, err := ci.eval(bindAggs(item.Expr, gRows[i].agg))
				if err != nil {
					sortErr = err
					return false
				}
				vj, err := cj.eval(bindAggs(item.Expr, gRows[j].agg))
				if err != nil {
					sortErr = err
					return false
				}
				c := compareForSort(vi, vj)
				if c == 0 {
					continue
				}
				if item.Desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
		if sortErr != nil {
			return nil, sortErr
		}
	}

	res := &Result{Columns: cols}
	for _, gr := range gRows {
		row, err := db.projectRow(projExprs, sc, gr.gr.first, params, gr.agg)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	if s.Distinct {
		res.Rows = dedupRows(res.Rows)
	}
	res.Rows = applyLimit(res.Rows, s.Limit, s.Offset)
	return res, nil
}

//
// Aggregate accumulators.
//

type aggAcc interface {
	step(ctx *evalCtx) error
	final() (Value, error)
}

func (db *DB) newAggAcc(fc *sqlparser.FuncCall) (aggAcc, error) {
	if factory, ok := db.aggUDFs[fc.Name]; ok {
		return &udfAcc{fc: fc, state: factory()}, nil
	}
	switch fc.Name {
	case "COUNT":
		if fc.Star {
			return &countStarAcc{}, nil
		}
		if fc.Distinct {
			return &countDistinctAcc{fc: fc, seen: map[string]bool{}}, nil
		}
		return &countAcc{fc: fc}, nil
	case "SUM":
		return &sumAcc{fc: fc}, nil
	case "AVG":
		return &avgAcc{fc: fc}, nil
	case "MIN":
		return &minMaxAcc{fc: fc, min: true}, nil
	case "MAX":
		return &minMaxAcc{fc: fc, min: false}, nil
	}
	return nil, fmt.Errorf("sqldb: unknown aggregate %s", fc.Name)
}

func evalAggArg(ctx *evalCtx, fc *sqlparser.FuncCall) (Value, error) {
	if len(fc.Args) != 1 {
		return Value{}, fmt.Errorf("sqldb: %s takes one argument", fc.Name)
	}
	return ctx.eval(fc.Args[0])
}

type countStarAcc struct{ n int64 }

func (a *countStarAcc) step(*evalCtx) error   { a.n++; return nil }
func (a *countStarAcc) final() (Value, error) { return Int(a.n), nil }

type countAcc struct {
	fc *sqlparser.FuncCall
	n  int64
}

func (a *countAcc) step(ctx *evalCtx) error {
	v, err := evalAggArg(ctx, a.fc)
	if err != nil {
		return err
	}
	if !v.IsNull() {
		a.n++
	}
	return nil
}
func (a *countAcc) final() (Value, error) { return Int(a.n), nil }

type countDistinctAcc struct {
	fc   *sqlparser.FuncCall
	seen map[string]bool
}

func (a *countDistinctAcc) step(ctx *evalCtx) error {
	v, err := evalAggArg(ctx, a.fc)
	if err != nil {
		return err
	}
	if !v.IsNull() {
		a.seen[v.Key()] = true
	}
	return nil
}
func (a *countDistinctAcc) final() (Value, error) { return Int(int64(len(a.seen))), nil }

type sumAcc struct {
	fc  *sqlparser.FuncCall
	sum int64
	any bool
}

func (a *sumAcc) step(ctx *evalCtx) error {
	v, err := evalAggArg(ctx, a.fc)
	if err != nil {
		return err
	}
	if v.IsNull() {
		return nil
	}
	n, err := v.AsInt()
	if err != nil {
		return err
	}
	a.sum += n
	a.any = true
	return nil
}
func (a *sumAcc) final() (Value, error) {
	if !a.any {
		return Null(), nil
	}
	return Int(a.sum), nil
}

type avgAcc struct {
	fc  *sqlparser.FuncCall
	sum int64
	n   int64
}

func (a *avgAcc) step(ctx *evalCtx) error {
	v, err := evalAggArg(ctx, a.fc)
	if err != nil {
		return err
	}
	if v.IsNull() {
		return nil
	}
	x, err := v.AsInt()
	if err != nil {
		return err
	}
	a.sum += x
	a.n++
	return nil
}
func (a *avgAcc) final() (Value, error) {
	if a.n == 0 {
		return Null(), nil
	}
	return Int(a.sum / a.n), nil
}

type minMaxAcc struct {
	fc   *sqlparser.FuncCall
	min  bool
	best Value
	any  bool
}

func (a *minMaxAcc) step(ctx *evalCtx) error {
	v, err := evalAggArg(ctx, a.fc)
	if err != nil {
		return err
	}
	if v.IsNull() {
		return nil
	}
	if !a.any {
		a.best = v
		a.any = true
		return nil
	}
	c, err := v.Compare(a.best)
	if err != nil {
		return err
	}
	if (a.min && c < 0) || (!a.min && c > 0) {
		a.best = v
	}
	return nil
}
func (a *minMaxAcc) final() (Value, error) {
	if !a.any {
		return Null(), nil
	}
	return a.best, nil
}

type udfAcc struct {
	fc    *sqlparser.FuncCall
	state AggState
}

func (a *udfAcc) step(ctx *evalCtx) error {
	args := make([]Value, len(a.fc.Args))
	for i, e := range a.fc.Args {
		v, err := ctx.eval(e)
		if err != nil {
			return err
		}
		args[i] = v
	}
	return a.state.Step(args)
}
func (a *udfAcc) final() (Value, error) { return a.state.Final() }
