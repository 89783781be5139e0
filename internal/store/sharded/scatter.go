// Cross-shard reads.
//
// A SELECT that cannot be routed to one shard is finished one way: every
// shard runs a per-shard statement in parallel, through this connection's
// sessions, and shard 0's compiled pipeline runs a coordinator statement
// over the rows they return (sqldb.SelectFeeds). Only the pair of
// statements depends on the shape:
//
//   - Unordered plain reads (point, search, the proxy's column reads) run as
//     written on every shard and concatenate; there is no coordinator
//     statement.
//   - Ordered, DISTINCT or LIMIT plain reads project their non-selected
//     ORDER BY keys as hidden columns and push LIMIT (absorbing OFFSET) down,
//     so each shard's ordered (OPE) index stops early; the coordinator runs
//     SELECT [DISTINCT] visible FROM partial ORDER BY keys LIMIT ….
//   - Single-table aggregates run a partial statement per shard — COUNT,
//     SUM, MIN, MAX and aggregate UDFs as written, AVG as SUM and COUNT —
//     and the coordinator merges the partials: COUNT and SUM by SUM,
//     MIN/MAX by MIN/MAX, AVG as SUM(s)/SUM(c), an aggregate UDF re-applied
//     to its partials (for hom_sum a product of per-shard partial products,
//     §3.1's server-side SUM spread over shards). GROUP BY, HAVING, ORDER
//     BY, expressions over aggregates, DISTINCT and LIMIT are the
//     coordinator's.
//   - Everything else — joins, COUNT(DISTINCT), star with ORDER BY — feeds
//     each FROM entry from a plain read of its table, filtered by the
//     leading WHERE conjuncts over that entry alone, and the coordinator
//     runs the statement as written.
//
// A per-shard statement that fails sends the SELECT down the feed path,
// where the coordinator evaluates every expression on exactly the rows one
// store would: a statement fails sharded when it fails on one store.
//
// Reads take no cross-shard snapshot: per-shard results reflect each
// shard's committed state at its own read time, the same read-committed
// view concurrent sessions already get within one sqldb instance.
package sharded

import (
	"math"
	"strconv"
	"sync"

	"repro/internal/sqldb"
	"repro/internal/sqlparser"
)

func (c *Conn) execSelect(s *sqlparser.SelectStmt, params []sqldb.Value) (*sqldb.Result, error) {
	e := c.eng
	if len(e.shards) == 1 || len(s.From) == 0 {
		return c.session(0).Exec(s, params...)
	}
	if len(s.From) == 1 {
		if shard, ok := e.routeWhere(s.From[0].Table, s.Where, params, s.From[0].Alias); ok {
			return c.session(shard).Exec(s, params...)
		}
		planner := e.planPlain
		if e.selectHasAgg(s) || len(s.GroupBy) > 0 {
			planner = e.planAgg
		}
		if plan, ok := planner(s); ok {
			// A statement run as written fails exactly where one store
			// would; a rewritten one may not, and the feed path decides.
			res, err := c.runPartial(plan, params)
			if err == nil || plan.merge == nil {
				return res, err
			}
		}
	}
	return c.feedExec(s, params)
}

// scatter runs one statement on every shard in parallel through this
// connection's sessions (so a pinned transaction reads its own writes on
// its shard).
func (c *Conn) scatter(st *sqlparser.SelectStmt, params []sqldb.Value) ([]*sqldb.Result, error) {
	n := len(c.eng.shards)
	results := make([]*sqldb.Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		sess := c.session(i)
		wg.Add(1)
		go func(i int, sess *sqldb.Session) {
			defer wg.Done()
			results[i], errs[i] = sess.Exec(st, params...)
		}(i, sess)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

//
// Expression helpers
//

var builtinAggs = map[string]bool{"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true}

func (e *Engine) isAgg(name string) bool {
	return builtinAggs[name] || e.isAggUDF(name)
}

// children lists an expression's direct subexpressions.
func children(ex sqlparser.Expr) []sqlparser.Expr {
	switch x := ex.(type) {
	case *sqlparser.BinaryExpr:
		return []sqlparser.Expr{x.L, x.R}
	case *sqlparser.UnaryExpr:
		return []sqlparser.Expr{x.E}
	case *sqlparser.FuncCall:
		return x.Args
	case *sqlparser.InExpr:
		return append([]sqlparser.Expr{x.E}, x.List...)
	case *sqlparser.LikeExpr:
		return []sqlparser.Expr{x.E, x.Pattern}
	case *sqlparser.BetweenExpr:
		return []sqlparser.Expr{x.E, x.Lo, x.Hi}
	case *sqlparser.IsNullExpr:
		return []sqlparser.Expr{x.E}
	}
	return nil
}

// anyExpr reports whether pred holds for ex or any of its subexpressions.
func anyExpr(ex sqlparser.Expr, pred func(sqlparser.Expr) bool) bool {
	if pred(ex) {
		return true
	}
	for _, c := range children(ex) {
		if anyExpr(c, pred) {
			return true
		}
	}
	return false
}

func (e *Engine) containsAgg(ex sqlparser.Expr) bool {
	return anyExpr(ex, func(x sqlparser.Expr) bool {
		fc, ok := x.(*sqlparser.FuncCall)
		return ok && e.isAgg(fc.Name)
	})
}

func (e *Engine) selectHasAgg(s *sqlparser.SelectStmt) bool {
	for _, se := range s.Exprs {
		if !se.Star && e.containsAgg(se.Expr) {
			return true
		}
	}
	if s.Having != nil && e.containsAgg(s.Having) {
		return true
	}
	for _, o := range s.OrderBy {
		if e.containsAgg(o.Expr) {
			return true
		}
	}
	return false
}

func isStar(se sqlparser.SelectExpr) bool {
	cr, ok := se.Expr.(*sqlparser.ColRef)
	return se.Star || (ok && cr.Column == "*")
}

// outName is the result column name sqldb gives a select item.
func outName(se sqlparser.SelectExpr) string {
	if se.Alias != "" {
		return se.Alias
	}
	if cr, ok := se.Expr.(*sqlparser.ColRef); ok {
		return cr.Column
	}
	return se.Expr.String()
}

// visibleIndex resolves an ORDER BY expression to a projected column: by
// select-list alias, or by textual equality with a projected expression.
func visibleIndex(ex sqlparser.Expr, items []sqlparser.SelectExpr) int {
	if cr, ok := ex.(*sqlparser.ColRef); ok && cr.Table == "" {
		for i, se := range items {
			if !se.Star && se.Alias == cr.Column {
				return i
			}
		}
	}
	str := ex.String()
	for i, se := range items {
		if !se.Star && se.Alias == "" && se.Expr.String() == str {
			return i
		}
	}
	return -1
}

//
// Partial statements: per-shard rows, one coordinator statement over them
//

// partialPlan is a single-table SELECT split into the statement every shard
// runs and the coordinator statement over the shards' rows, whose one FROM
// entry reads partial column i as #i.
type partialPlan struct {
	perShard *sqlparser.SelectStmt
	merge    *sqlparser.SelectStmt // nil: the shards' rows concatenate
}

var partialFrom = []sqlparser.TableRef{{Table: "partial"}}

func partialCol(i int) *sqlparser.ColRef {
	return &sqlparser.ColRef{Column: "#" + strconv.Itoa(i)}
}

func (c *Conn) runPartial(plan *partialPlan, params []sqldb.Value) (*sqldb.Result, error) {
	results, err := c.scatter(plan.perShard, params)
	if err != nil {
		return nil, err
	}
	feed := sqldb.Feed{Columns: results[0].Columns}
	for _, r := range results {
		feed.Rows = append(feed.Rows, r.Rows...)
	}
	if plan.merge == nil {
		return &sqldb.Result{Columns: feed.Columns, Rows: feed.Rows}, nil
	}
	feed.Columns = make([]string, len(feed.Columns))
	for i := range feed.Columns {
		feed.Columns[i] = partialCol(i).Column
	}
	return c.eng.shards[0].SelectFeeds(plan.merge, []sqldb.Feed{feed}, params...)
}

// planPlain plans a non-aggregate single-table SELECT. ok=false (a star
// with ORDER BY) leaves it to the feed path.
func (e *Engine) planPlain(s *sqlparser.SelectStmt) (*partialPlan, bool) {
	if !s.Distinct && s.Limit == nil && s.Offset == nil && len(s.OrderBy) == 0 {
		return &partialPlan{perShard: s}, true
	}
	var names []string
	for _, se := range s.Exprs {
		if !isStar(se) {
			names = append(names, outName(se))
			continue
		}
		cols := e.tableCols(s.From[0].Table)
		if len(s.OrderBy) > 0 || cols == nil {
			return nil, false
		}
		for _, col := range cols {
			names = append(names, col.Name)
		}
	}
	merge := &sqlparser.SelectStmt{Distinct: s.Distinct, From: partialFrom, Limit: s.Limit, Offset: s.Offset}
	for i, name := range names {
		merge.Exprs = append(merge.Exprs, sqlparser.SelectExpr{Expr: partialCol(i), Alias: name})
	}
	per := *s // shallow copy; hidden sort keys extend a copy of the select list
	per.Exprs = append([]sqlparser.SelectExpr(nil), s.Exprs...)
	for _, item := range s.OrderBy {
		idx := visibleIndex(item.Expr, s.Exprs)
		if idx < 0 {
			idx = len(per.Exprs)
			per.Exprs = append(per.Exprs, sqlparser.SelectExpr{Expr: item.Expr})
		}
		merge.OrderBy = append(merge.OrderBy, sqlparser.OrderItem{Expr: partialCol(idx), Desc: item.Desc})
	}

	// Push LIMIT down (absorbing OFFSET), except under DISTINCT with hidden
	// sort keys: each shard's DISTINCT then runs over (visible, hidden)
	// tuples, so rows that collapse at the coordinator would eat the
	// per-shard budget and starve the result. A shard's ORDER BY only
	// matters to its LIMIT.
	per.Limit, per.Offset = nil, nil
	if s.Limit != nil && !(s.Distinct && len(per.Exprs) > len(s.Exprs)) {
		lim := *s.Limit
		if s.Offset != nil {
			// Saturate: a wrapped sum would be a negative per-shard LIMIT.
			lim = min(lim, math.MaxInt64-*s.Offset) + *s.Offset
		}
		per.Limit = &lim
	} else {
		per.OrderBy = nil
	}
	return &partialPlan{perShard: &per, merge: merge}, true
}

// planAgg plans an aggregate or grouped single-table SELECT: the per-shard
// statement computes partials, the merge statement combines them. ok=false
// (COUNT(DISTINCT), a star, an aggregate under IN/LIKE/BETWEEN/IS NULL)
// leaves it to the feed path.
func (e *Engine) planAgg(s *sqlparser.SelectStmt) (*partialPlan, bool) {
	p := &partials{eng: e, byText: make(map[string]int)}
	merge := &sqlparser.SelectStmt{Distinct: s.Distinct, From: partialFrom, Limit: s.Limit, Offset: s.Offset}
	for _, se := range s.Exprs {
		if isStar(se) {
			return nil, false
		}
		ex, ok := p.lower(se.Expr)
		if !ok {
			return nil, false
		}
		merge.Exprs = append(merge.Exprs, sqlparser.SelectExpr{Expr: ex, Alias: outName(se)})
	}
	for _, g := range s.GroupBy {
		merge.GroupBy = append(merge.GroupBy, p.column(g))
	}
	if s.Having != nil {
		ex, ok := p.lower(s.Having)
		if !ok {
			return nil, false
		}
		merge.Having = ex
	}
	for _, o := range s.OrderBy {
		var ex sqlparser.Expr
		if i := visibleIndex(o.Expr, s.Exprs); i >= 0 {
			ex = merge.Exprs[i].Expr // an alias or a projected expression
		} else {
			var ok bool
			if ex, ok = p.lower(o.Expr); !ok {
				return nil, false
			}
		}
		merge.OrderBy = append(merge.OrderBy, sqlparser.OrderItem{Expr: ex, Desc: o.Desc})
	}
	if len(s.GroupBy) > 0 {
		e.groupPushdowns.Add(1)
	}
	per := &sqlparser.SelectStmt{Exprs: p.items, From: s.From, Where: s.Where, GroupBy: s.GroupBy}
	return &partialPlan{perShard: per, merge: merge}, true
}

// partials collects the per-shard select list of an aggregate plan.
type partials struct {
	eng    *Engine
	items  []sqlparser.SelectExpr
	byText map[string]int
}

// column projects ex per shard (once per distinct text) and returns the
// partial column that reads it.
func (p *partials) column(ex sqlparser.Expr) *sqlparser.ColRef {
	key := ex.String()
	i, ok := p.byText[key]
	if !ok {
		i = len(p.items)
		p.items = append(p.items, sqlparser.SelectExpr{Expr: ex})
		p.byText[key] = i
	}
	return partialCol(i)
}

// lower rewrites an output expression of the original statement into the
// merge statement's terms: aggregates merge their partials, aggregate-free
// subexpressions that read columns become partial columns (each group's
// first row, as in one store), and literals and parameters stay.
func (p *partials) lower(ex sqlparser.Expr) (sqlparser.Expr, bool) {
	if !p.eng.containsAgg(ex) {
		if !anyExpr(ex, func(x sqlparser.Expr) bool { _, ok := x.(*sqlparser.ColRef); return ok }) {
			return ex, true
		}
		return p.column(ex), true
	}
	switch x := ex.(type) {
	case *sqlparser.FuncCall:
		if p.eng.isAgg(x.Name) {
			return p.mergeAgg(x)
		}
	case *sqlparser.BinaryExpr:
		l, okL := p.lower(x.L)
		r, okR := p.lower(x.R)
		return &sqlparser.BinaryExpr{Op: x.Op, L: l, R: r}, okL && okR
	case *sqlparser.UnaryExpr:
		sub, ok := p.lower(x.E)
		return &sqlparser.UnaryExpr{Op: x.Op, E: sub}, ok
	}
	return nil, false
}

// mergeAgg lowers one aggregate call into its merge over per-shard
// partials.
func (p *partials) mergeAgg(fc *sqlparser.FuncCall) (sqlparser.Expr, bool) {
	if fc.Distinct {
		return nil, false // COUNT(DISTINCT) needs the values, not counts
	}
	over := func(name string, partial sqlparser.Expr) sqlparser.Expr {
		return &sqlparser.FuncCall{Name: name, Args: []sqlparser.Expr{p.column(partial)}}
	}
	switch fc.Name {
	case "COUNT":
		return over("SUM", fc), true
	case "AVG":
		if fc.Star || len(fc.Args) != 1 {
			return nil, false
		}
		// Integer division, NULL over a zero count: exactly AVG's final.
		return &sqlparser.BinaryExpr{Op: "/",
			L: over("SUM", &sqlparser.FuncCall{Name: "SUM", Args: fc.Args}),
			R: over("SUM", &sqlparser.FuncCall{Name: "COUNT", Args: fc.Args}),
		}, true
	}
	// SUM, MIN, MAX and decomposable aggregate UDFs re-apply to partials.
	return over(fc.Name, fc), true
}

//
// Feeds
//

// feedExec finishes a cross-shard SELECT exactly as one store would: each
// FROM entry is fed by a plain read of its table from every shard, and shard
// 0 runs the statement as written over the feeds. Every feed is read before
// the statement compiles, so no shard's lock is held while another is read.
func (c *Conn) feedExec(s *sqlparser.SelectStmt, params []sqldb.Value) (*sqldb.Result, error) {
	own := c.eng.pushdown(s)
	feeds := make([]sqldb.Feed, len(s.From))
	for i, ref := range s.From {
		read := &sqlparser.SelectStmt{
			Exprs: []sqlparser.SelectExpr{{Star: true}},
			From:  []sqlparser.TableRef{{Table: ref.Table, Alias: ref.Alias}},
			Where: own[i],
		}
		res, err := c.execSelect(read, params)
		if err != nil && own[i] != nil {
			// A pushed conjunct failed on a row the statement may never
			// evaluate it on; feed the whole table and let the statement
			// decide.
			read.Where = nil
			res, err = c.execSelect(read, params)
		}
		if err != nil {
			return nil, err
		}
		feeds[i] = sqldb.Feed{Columns: res.Columns, Rows: res.Rows}
	}
	return c.eng.shards[0].SelectFeeds(s, feeds, params...)
}

// pushdown returns, per FROM entry, the WHERE conjuncts its feed applies
// (ANDed): the leading run of conjuncts that each read one entry alone. A
// conjunct that reads several entries, none, or an aggregate ends the run,
// so a row a feed drops is one the statement's filter rejects before it
// evaluates anything the feed skipped.
func (e *Engine) pushdown(s *sqlparser.SelectStmt) []sqlparser.Expr {
	own := make([]sqlparser.Expr, len(s.From))
	for _, cj := range conjunctsOf(s.Where) {
		i := e.entryOf(s.From, cj)
		if i < 0 {
			break
		}
		if own[i] == nil {
			own[i] = cj
		} else {
			own[i] = &sqlparser.BinaryExpr{Op: "AND", L: own[i], R: cj}
		}
	}
	return own
}

// entryOf returns the FROM entry that every column of ex resolves to, by
// sqldb's rules (a qualifier names an alias or table, the first match wins;
// a bare name must be unambiguous), or -1.
func (e *Engine) entryOf(from []sqlparser.TableRef, ex sqlparser.Expr) int {
	hasCol := func(i int, col string) bool {
		t := e.shards[0].Table(from[i].Table)
		return t != nil && t.ColumnIndex(col) >= 0
	}
	resolve := func(cr *sqlparser.ColRef) int {
		found := -1
		for i, ref := range from {
			if cr.Table != "" {
				if (ref.Alias != "" && ref.Alias == cr.Table) || ref.Table == cr.Table {
					if hasCol(i, cr.Column) {
						return i
					}
					return -1
				}
			} else if hasCol(i, cr.Column) {
				if found >= 0 {
					return -1
				}
				found = i
			}
		}
		return found
	}
	entry := -1
	bad := anyExpr(ex, func(x sqlparser.Expr) bool {
		switch x := x.(type) {
		case *sqlparser.FuncCall:
			return e.isAgg(x.Name)
		case *sqlparser.ColRef:
			i := resolve(x)
			if i < 0 || (entry >= 0 && i != entry) {
				return true
			}
			entry = i
		}
		return false
	})
	if bad {
		return -1
	}
	return entry
}
