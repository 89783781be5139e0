// Cross-shard reads.
//
// A SELECT that cannot be routed to one shard is finished one way: every
// shard runs a per-shard statement in parallel, through this connection's
// sessions, and shard 0's compiled pipeline runs a merge statement over the
// rows they return (sqldb.SelectFeeds). Only the pair of statements depends
// on the shape:
//
//   - Unordered plain reads (point, search, the proxy's column reads) run as
//     written on every shard and concatenate; there is no merge statement.
//   - Ordered, DISTINCT or LIMIT plain reads project their non-selected
//     ORDER BY keys as hidden columns and push LIMIT (absorbing OFFSET) down,
//     so each shard's ordered (OPE) index stops early; the merge runs
//     SELECT [DISTINCT] visible FROM partial ORDER BY keys LIMIT ….
//   - Aggregates run a partial statement per shard — COUNT, SUM, MIN, MAX
//     and aggregate UDFs as written, AVG as SUM and COUNT — and the merge
//     combines the partials: COUNT and SUM by SUM, MIN/MAX by MIN/MAX, AVG
//     as SUM(s)/SUM(c), an aggregate UDF re-applied to its partials (for
//     hom_sum a product of per-shard partial products, §3.1's server-side
//     SUM spread over shards). GROUP BY, HAVING, ORDER BY, expressions over
//     aggregates, DISTINCT and LIMIT are the merge's.
//   - A statement over several FROM entries (a join) is planned the same
//     way, and its per-shard statement is a fragment-and-replicate join:
//     one entry stays local, read in place on every shard, and every other
//     entry is fed — read once from every shard as SELECT <the columns the
//     statement names in that entry> (every column under a star), filtered
//     by the leading WHERE conjuncts over that entry alone — and the same
//     feeds go to every shard (sqldb.Session.SelectFeeds). Joins are inner,
//     and each local row lives on one shard, so the shards' joins partition
//     the statement's. The local entry is the one with no pushed-down
//     conjuncts of its own and the most rows summed over shards (the first
//     of a tie): its feed would cost the most to ship, and with nothing
//     pruning its scan a join that builds on it probes its hash index.
//
// Every feed is read before any per-shard statement starts, and each
// per-shard statement holds its own shard's lock alone, so no shard's lock
// is held while another shard is read.
//
// The feed path is the fallback. A join with no unfiltered entry, a shape
// the planner refuses (COUNT(DISTINCT), a star with ORDER BY), a join whose
// per-shard or merge statement fails and a rewritten single-table statement
// that fails all run on shard 0 as written over a feed of every FROM entry
// (feedExec), where every expression is evaluated on exactly the rows one
// store would: a statement fails sharded when it fails on one store.
//
// Reads take no cross-shard snapshot: per-shard results reflect each
// shard's committed state at its own read time, the same read-committed
// view concurrent sessions already get within one sqldb instance. Inside a
// transaction the pinned shard's session reads the transaction's writes,
// in a feed and in a local entry alike.
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
	if len(s.From) > 1 {
		return c.execJoin(s, params)
	}
	if shard, ok := e.routeWhere(s.From[0].Table, s.Where, params, s.From[0].Alias); ok {
		return c.session(shard).Exec(s, params...)
	}
	if plan, ok := e.plan(s); ok {
		// A statement run as written fails exactly where one store
		// would; a rewritten one may not, and the feed path decides.
		res, err := c.runPartial(plan, nil, params)
		if err == nil || plan.merge == nil {
			return res, err
		}
	}
	return c.feedExec(s, make([]*sqldb.Feed, 1), params)
}

// execJoin runs a SELECT over several FROM entries. Every entry but the
// local one (localEntry) is read as a feed, and each shard joins the feeds
// with its own rows of the local entry, through this connection's session:
// the statement's answer is the union over shards, since every join is
// inner and each local row lives on one shard. The planner's per-shard and
// merge statements are the single-table ones. A refused plan or any error
// finishes the statement on the feed path, over the feeds already read.
func (c *Conn) execJoin(s *sqlparser.SelectStmt, params []sqldb.Value) (*sqldb.Result, error) {
	e := c.eng
	tabs := e.tablesOf(s.From)
	own := e.pushdown(s, tabs)
	cols := feedColumns(s, tabs)
	feeds := make([]*sqldb.Feed, len(s.From))
	if local := e.localEntry(tabs, own); local >= 0 {
		if plan, ok := e.plan(s); ok {
			if err := c.readFeeds(s, own, cols, feeds, local, params); err != nil {
				return nil, err
			}
			if res, err := c.runPartial(plan, feeds, params); err == nil {
				return res, nil
			}
		}
	}
	return c.feedExec(s, feeds, params)
}

// localEntry picks the FROM entry a cross-shard join reads in place on
// every shard: among the entries with no pushed-down conjuncts of their
// own, the one with the most rows summed over shards, the first of a tie.
// It is the entry whose feed would cost the most to ship, and the one whose
// hash index can stand in for a join's build table, as no conjunct prunes
// its scan. -1 (every entry filters itself, or a table does not exist)
// leaves the statement to the feed path.
func (e *Engine) localEntry(tabs []*sqldb.Table, own []sqlparser.Expr) int {
	local, most := -1, -1
	for i, t := range tabs {
		if t == nil {
			return -1
		}
		if own[i] != nil {
			continue
		}
		rows := 0
		for _, sh := range e.shards {
			rows += sh.RowCount(t.Name)
		}
		if rows > most {
			local, most = i, rows
		}
	}
	return local
}

// scatter runs one statement on every shard in parallel through this
// connection's sessions (so a pinned transaction reads its own writes on
// its shard): as written, or over feeds, every shard given the same ones
// (sqldb.Session.SelectFeeds; a nil feed is the shard's own table).
func (c *Conn) scatter(st *sqlparser.SelectStmt, feeds []*sqldb.Feed, params []sqldb.Value) ([]*sqldb.Result, error) {
	n := len(c.eng.shards)
	results := make([]*sqldb.Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		sess := c.session(i)
		wg.Add(1)
		go func(i int, sess *sqldb.Session) {
			defer wg.Done()
			if feeds == nil {
				results[i], errs[i] = sess.Exec(st, params...)
			} else {
				results[i], errs[i] = sess.SelectFeeds(st, feeds, params...)
			}
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

func (c *Conn) runPartial(plan *partialPlan, feeds []*sqldb.Feed, params []sqldb.Value) (*sqldb.Result, error) {
	results, err := c.scatter(plan.perShard, feeds, params)
	if err != nil {
		return nil, err
	}
	feed := &sqldb.Feed{Columns: results[0].Columns}
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
	return c.eng.shards[0].SelectFeeds(plan.merge, []*sqldb.Feed{feed}, params...)
}

// plan plans a SELECT with planAgg when it aggregates or groups, else with
// planPlain.
func (e *Engine) plan(s *sqlparser.SelectStmt) (*partialPlan, bool) {
	if e.selectHasAgg(s) || len(s.GroupBy) > 0 {
		return e.planAgg(s)
	}
	return e.planPlain(s)
}

// planPlain plans a non-aggregate SELECT. ok=false (a star with ORDER BY,
// or a qualified star no FROM entry answers) leaves it to the feed path.
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
		if len(s.OrderBy) > 0 {
			return nil, false
		}
		// As sqldb expands it: a bare star every entry's columns in FROM
		// order, t.* those of the first entry t names.
		qual := ""
		if cr, ok := se.Expr.(*sqlparser.ColRef); ok && !se.Star {
			qual = cr.Table
		}
		found := false
		for _, ref := range s.From {
			if qual != "" && ref.Alias != qual && ref.Table != qual {
				continue
			}
			cols := e.tableCols(ref.Table)
			if cols == nil {
				return nil, false
			}
			for _, col := range cols {
				names = append(names, col.Name)
			}
			found = true
			if qual != "" {
				break
			}
		}
		if !found {
			return nil, false
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

// feedExec finishes a cross-shard SELECT exactly as one store would: shard
// 0 runs the statement as written over a feed for every FROM entry (those
// in feeds already read, readFeeds reads the rest). Every feed is read
// before the statement compiles, so no shard's lock is held while another
// is read.
func (c *Conn) feedExec(s *sqlparser.SelectStmt, feeds []*sqldb.Feed, params []sqldb.Value) (*sqldb.Result, error) {
	tabs := c.eng.tablesOf(s.From)
	if err := c.readFeeds(s, c.eng.pushdown(s, tabs), feedColumns(s, tabs), feeds, -1, params); err != nil {
		return nil, err
	}
	return c.eng.shards[0].SelectFeeds(s, feeds, params...)
}

// readFeeds reads a feed into feeds[i] for every FROM entry i but skip that
// has none yet: its table from every shard, projected to cols[i] (every
// column when cols is nil) and filtered by its own leading conjuncts
// own[i].
func (c *Conn) readFeeds(s *sqlparser.SelectStmt, own []sqlparser.Expr, cols [][]string, feeds []*sqldb.Feed, skip int, params []sqldb.Value) error {
	for i, ref := range s.From {
		if i == skip || feeds[i] != nil {
			continue
		}
		read := &sqlparser.SelectStmt{
			Exprs: []sqlparser.SelectExpr{{Star: true}},
			From:  []sqlparser.TableRef{{Table: ref.Table, Alias: ref.Alias}},
			Where: own[i],
		}
		if cols != nil {
			read.Exprs = make([]sqlparser.SelectExpr, len(cols[i]))
			for j, name := range cols[i] {
				read.Exprs[j].Expr = &sqlparser.ColRef{Column: name}
			}
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
			return err
		}
		feeds[i] = &sqldb.Feed{Columns: res.Columns, Rows: res.Rows}
	}
	return nil
}

// feedColumns returns, per FROM entry, the columns its feed reads: those of
// its table, in table order, that some column reference of s can resolve to
// in that entry (see resolvesTo). Every reference then resolves, or fails
// as ambiguous or unknown, over the feeds exactly as over the tables. An
// entry s never names reads its first column, which keeps its row count.
// nil (read every column) when the select list has a star, which reads
// whole rows, or when a table does not exist, which the read reports.
func feedColumns(s *sqlparser.SelectStmt, tabs []*sqldb.Table) [][]string {
	for _, se := range s.Exprs {
		if isStar(se) {
			return nil
		}
	}
	named := make([][]bool, len(s.From))
	for i, t := range tabs {
		if t == nil {
			return nil
		}
		named[i] = make([]bool, len(t.Cols))
	}
	mark := func(ex sqlparser.Expr) {
		anyExpr(ex, func(x sqlparser.Expr) bool {
			if cr, ok := x.(*sqlparser.ColRef); ok {
				resolvesTo(s.From, tabs, cr, func(i, ci int) { named[i][ci] = true })
			}
			return false
		})
	}
	for _, se := range s.Exprs {
		mark(se.Expr)
	}
	for _, ref := range s.From {
		mark(ref.JoinOn)
	}
	mark(s.Where)
	for _, g := range s.GroupBy {
		mark(g)
	}
	mark(s.Having)
	for _, o := range s.OrderBy {
		mark(o.Expr)
	}
	cols := make([][]string, len(s.From))
	for i, t := range tabs {
		for ci, col := range t.Cols {
			if named[i][ci] {
				cols[i] = append(cols[i], col.Name)
			}
		}
		if cols[i] == nil {
			cols[i] = []string{t.Cols[0].Name}
		}
	}
	return cols
}

// tablesOf returns each FROM entry's table schema (nil where the table does
// not exist).
func (e *Engine) tablesOf(from []sqlparser.TableRef) []*sqldb.Table {
	tabs := make([]*sqldb.Table, len(from))
	for i, ref := range from {
		tabs[i] = e.shards[0].Table(ref.Table)
	}
	return tabs
}

// resolvesTo calls f with each FROM entry, and the column's index in its
// table, that cr can resolve to by sqldb's scope rule: a qualified
// reference in the first entry whose alias or table name is its qualifier,
// if that table has the column; a bare one in every entry whose table has
// it (sqldb fails a bare reference with two such entries as ambiguous, and
// one with none as unknown). A nil table has no columns.
func resolvesTo(from []sqlparser.TableRef, tabs []*sqldb.Table, cr *sqlparser.ColRef, f func(i, ci int)) {
	for i, ref := range from {
		if cr.Table != "" && ref.Alias != cr.Table && ref.Table != cr.Table {
			continue
		}
		if t := tabs[i]; t != nil {
			if ci := t.ColumnIndex(cr.Column); ci >= 0 {
				f(i, ci)
			}
		}
		if cr.Table != "" {
			return
		}
	}
}

// pushdown returns, per FROM entry, the WHERE conjuncts its feed applies
// (ANDed): the leading run of conjuncts that each read one entry alone. A
// conjunct that reads several entries, none, or an aggregate ends the run,
// so a row a feed drops is one the statement's filter rejects before it
// evaluates anything the feed skipped.
func (e *Engine) pushdown(s *sqlparser.SelectStmt, tabs []*sqldb.Table) []sqlparser.Expr {
	own := make([]sqlparser.Expr, len(s.From))
	for _, cj := range conjunctsOf(s.Where) {
		i := e.entryOf(s.From, tabs, cj)
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

// entryOf returns the FROM entry that every column of ex resolves to
// unambiguously (resolvesTo finds exactly one), or -1.
func (e *Engine) entryOf(from []sqlparser.TableRef, tabs []*sqldb.Table, ex sqlparser.Expr) int {
	entry := -1
	bad := anyExpr(ex, func(x sqlparser.Expr) bool {
		switch x := x.(type) {
		case *sqlparser.FuncCall:
			return e.isAgg(x.Name)
		case *sqlparser.ColRef:
			i, n := -1, 0
			resolvesTo(from, tabs, x, func(j, _ int) { i, n = j, n+1 })
			if n != 1 || (entry >= 0 && i != entry) {
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
