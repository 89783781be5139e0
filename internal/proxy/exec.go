package proxy

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/onion"
	"repro/internal/sqldb"
	"repro/internal/sqlparser"
)

// Execute parses and runs one logical SQL statement through the proxy:
// build (rewrite and record onion requirements) -> adjust onions -> run on
// the DBMS -> decrypt (§3, steps 1-4). Parsed statements are memoized in a bounded LRU keyed by the
// SQL text, so repeated statement shapes (the common case for parameterized
// workloads) skip the parser entirely.
//
// Execute runs on the proxy's implicit default session; callers that need
// per-connection transaction scope open explicit sessions (NewSession).
func (p *Proxy) Execute(sql string, params ...sqldb.Value) (*sqldb.Result, error) {
	return p.defaultSession().Execute(sql, params...)
}

// parse consults the AST cache before invoking the parser. Cached ASTs are
// shared read-only across concurrent Execute calls; nothing in the proxy or
// the DBMS mutates a parsed statement.
func (p *Proxy) parse(sql string) (sqlparser.Statement, error) {
	if len(sql) > astCacheMaxSQL {
		return sqlparser.Parse(sql)
	}
	if st, ok := p.astCache.get(sql); ok {
		return st, nil
	}
	st, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	p.astCache.put(sql, st)
	return st, nil
}

// ExecuteStmt runs a pre-parsed statement on the default session.
func (p *Proxy) ExecuteStmt(st sqlparser.Statement, params ...sqldb.Value) (*sqldb.Result, error) {
	return p.defaultSession().ExecuteStmt(st, params...)
}

// adjNeeded reports whether applying a build's requirements would mutate
// proxy state (onion layers, join groups, stale resync). In the trained
// steady state this returns false and queries proceed under the read lock,
// preserving server-side parallelism (§8.4.1's "no server-side decryptions
// in the steady state").
func (p *Proxy) adjNeeded(an *analysis) bool {
	if len(an.unsupported) > 0 && p.training {
		return true
	}
	return slices.ContainsFunc(an.reqs, p.reqNeeded)
}

// reqNeeded reports whether meeting r would change anything: a layer, a
// deferred onion, a stale column, a join group or key, a usage flag.
func (p *Proxy) reqNeeded(r requirement) bool {
	// atOrBelow treats a discarded onion (nil state) as needing the slow
	// path, which produces the proper "no such onion" error, and a deferred
	// one likewise: the slow path materialises it.
	atOrBelow := func(st *onion.State, l onion.Layer) bool {
		return st != nil && !st.Deferred && st.AtOrBelow(l)
	}
	switch r.class {
	case onion.ClassEquality:
		return r.cm.Stale[onion.Eq] || !atOrBelow(r.cm.Onions[onion.Eq], onion.DET)
	case onion.ClassOrder:
		return r.cm.Stale[onion.Eq] || !atOrBelow(r.cm.Onions[onion.Ord], onion.OPE)
	case onion.ClassJoin:
		return r.cm.Stale[onion.Eq] || r.joinWith.Stale[onion.Eq] ||
			!atOrBelow(r.cm.Onions[onion.JAdj], onion.JOIN) ||
			!atOrBelow(r.joinWith.Onions[onion.JAdj], onion.JOIN) ||
			r.cm.groupRoot() != r.joinWith.groupRoot() ||
			// Roots match but lazily converging keys may still differ.
			p.joinKey(r.cm) != p.joinKey(r.joinWith)
	case onion.ClassRangeJoin:
		return !atOrBelow(r.cm.Onions[onion.Ord], onion.OPE) || !atOrBelow(r.joinWith.Onions[onion.Ord], onion.OPE)
	case onion.ClassSum, onion.ClassIncrement:
		// No layer change, but first use materialises a deferred Add
		// onion and records the usage flag for the §8.3 analysis.
		return !r.cm.UsedSum || !r.cm.present(onion.Add)
	case onion.ClassSearch:
		return !r.cm.UsedSearch || !r.cm.present(onion.Search)
	case onion.ClassPlaintext:
		return true
	}
	return false
}

// prepare builds a statement and makes the onion adjustments its build
// recorded (§3.2), choosing between the read-locked fast path and the
// write-locked adjustment path. A build error or an unsupported clause
// refuses the statement before any adjustment is made. Under the write lock
// it builds again (state may have moved), applies the requirements, and
// builds once more: the decoders a build hands out read layer state. The
// statement the last build produced is the one that runs. The returned
// function releases the lock it acquired.
func (p *Proxy) prepare(build func() (*analysis, error)) (release func(), err error) {
	p.mu.RLock()
	an, err := build()
	if err == nil && !p.training {
		err = an.refusal()
	}
	if err != nil {
		p.mu.RUnlock()
		return nil, err
	}
	if !p.adjNeeded(an) {
		return p.mu.RUnlock, nil
	}
	p.mu.RUnlock()

	p.mu.Lock()
	an, err = build()
	if err == nil {
		err = p.applyRequirements(an)
	}
	if err == nil {
		_, err = build()
	}
	if err != nil {
		p.mu.Unlock()
		return nil, err
	}
	return p.mu.Unlock, nil
}

//
// SELECT
//

func (sess *Session) execSelect(s *sqlparser.SelectStmt, params []sqldb.Value) (*sqldb.Result, error) {
	p := sess.p
	var server *sqlparser.SelectStmt
	var plan *selectPlan
	release, err := p.prepare(func() (*analysis, error) {
		qs, err := p.buildScope(s.From)
		if err != nil {
			return nil, err
		}
		b := newPlanBuilder(p, qs, params)
		server, plan, err = b.buildSelect(s)
		return &b.an, err
	})
	if err != nil {
		return nil, err
	}
	defer release()

	if p.training {
		return &sqldb.Result{}, nil
	}
	p.stats.inProxySorts.Add(int64(len(plan.sortKeys)))
	res, err := sess.db.Exec(server)
	if err != nil {
		return nil, fmt.Errorf("proxy: server error: %w", err)
	}
	return p.decodeResult(res, plan)
}

// buildSelect constructs the server-side SELECT and the decryption plan. It
// records requirements clause by clause: JOIN ON, WHERE, select list, GROUP
// BY, HAVING, ORDER BY, DISTINCT.
func (b *planBuilder) buildSelect(s *sqlparser.SelectStmt) (*sqlparser.SelectStmt, *selectPlan, error) {
	qs := b.qs
	plan := &selectPlan{}
	server := &sqlparser.SelectStmt{Distinct: s.Distinct}

	// FROM with anonymized tables and aliases a1..aN.
	for i, ref := range s.From {
		srvRef := sqlparser.TableRef{Table: qs.entries[i].tm.Anon, Alias: anonAlias(i)}
		on, err := b.rewritePredicate(ref.JoinOn, true)
		if err != nil {
			return nil, nil, err
		}
		srvRef.JoinOn = on
		server.From = append(server.From, srvRef)
	}

	where, err := b.rewritePredicate(s.Where, len(s.From) > 0)
	if err != nil {
		return nil, nil, err
	}
	server.Where = where

	// Projection.
	for _, se := range s.Exprs {
		star, isStar := se.Expr.(*sqlparser.ColRef)
		if se.Star || isStar && star.Column == "*" {
			for i, e := range qs.entries {
				if !se.Star && e.alias != star.Table && e.tm.Logical != star.Table {
					continue
				}
				for _, cm := range e.tm.Cols {
					dec, err := b.fetchCol(cm, anonAlias(i))
					if err != nil {
						return nil, nil, err
					}
					plan.names = append(plan.names, cm.Logical)
					plan.decs = append(plan.decs, dec)
				}
			}
			continue
		}
		dec, err := b.exprDecoder(se.Expr)
		if err != nil {
			return nil, nil, err
		}
		name := se.Alias
		if name == "" {
			if cr, ok := se.Expr.(*sqlparser.ColRef); ok {
				name = cr.Column
			} else {
				name = se.Expr.String()
			}
		}
		plan.names = append(plan.names, name)
		plan.decs = append(plan.decs, dec)
	}

	// GROUP BY on Eq onions (DET) or plain columns.
	for _, g := range s.GroupBy {
		cm, alias, ok, err := b.column(g, true)
		if err != nil {
			return nil, nil, err
		}
		if !ok {
			b.failCols(g, "GROUP BY over computed expression")
			continue
		}
		col, err := b.need(cm, alias, onion.ClassEquality)
		if err != nil {
			return nil, nil, err
		}
		server.GroupBy = append(server.GroupBy, col)
	}

	// HAVING: COUNT-only conditions run on the server; anything touching
	// SUM/MIN/MAX/AVG filters at the proxy after decryption.
	if s.Having != nil {
		if havingServerSafe(s.Having) {
			server.Having = s.Having
		} else {
			dec, err := b.exprDecoder(s.Having)
			if err != nil {
				return nil, nil, err
			}
			plan.havingDec = dec
		}
	}

	// ORDER BY: in-proxy when possible (§3.5.1), on OPE otherwise.
	inProxySort := s.Limit == nil
	for _, o := range s.OrderBy {
		// Resolve aliases of select items first.
		expr := o.Expr
		if aliased := isColAlias(o.Expr, s); aliased != nil {
			expr = aliased
		}
		if inProxySort {
			// Sorted at the proxy, nothing revealed.
			dec, err := b.exprDecoder(expr)
			if err != nil {
				return nil, nil, err
			}
			plan.sortKeys = append(plan.sortKeys, sortKeyPlan{dec: dec, desc: o.Desc})
			continue
		}
		cm, alias, isCol, err := b.column(expr, true)
		if err != nil {
			return nil, nil, err
		}
		if isCol {
			col, err := b.need(cm, alias, onion.ClassOrder)
			if err != nil {
				return nil, nil, err
			}
			server.OrderBy = append(server.OrderBy, sqlparser.OrderItem{Expr: col, Desc: o.Desc})
			continue
		}
		if fc, ok := expr.(*sqlparser.FuncCall); ok && fc.Name == "COUNT" {
			// The server computes COUNT over any layer: it sorts by it too.
			n := len(b.srv)
			if _, err := b.aggDecoder(fc); err != nil {
				return nil, nil, err
			}
			if len(b.srv) > n {
				server.OrderBy = append(server.OrderBy, sqlparser.OrderItem{Expr: b.srv[n].Expr, Desc: o.Desc})
			}
			continue
		}
		b.failCols(expr, "ORDER BY expression with LIMIT")
	}

	// SELECT DISTINCT compares the projected columns on the server.
	if s.Distinct {
		for _, se := range s.Exprs {
			if cm, _, ok, _ := b.column(se.Expr, true); ok {
				b.an.addReq(cm, onion.ClassEquality)
			}
		}
	}

	// LIMIT/OFFSET stay on the server only when no proxy-side filtering
	// or sorting reorders rows afterwards.
	if plan.havingDec == nil && len(plan.sortKeys) == 0 {
		server.Limit = s.Limit
		server.Offset = s.Offset
	} else {
		plan.limit = s.Limit
		plan.offset = s.Offset
	}

	server.Exprs = b.srv
	if len(server.Exprs) == 0 {
		// Zero-column server query (e.g. SELECT of only constants);
		// fetch a constant so the row count is preserved.
		b.addServer(&sqlparser.IntLit{V: 1})
		server.Exprs = b.srv
	}
	return server, plan, nil
}

// isColAlias resolves an ORDER BY name that matches a select alias.
func isColAlias(e sqlparser.Expr, s *sqlparser.SelectStmt) sqlparser.Expr {
	cr, ok := e.(*sqlparser.ColRef)
	if !ok || cr.Table != "" {
		return nil
	}
	for _, se := range s.Exprs {
		if !se.Star && se.Alias == cr.Column {
			return se.Expr
		}
	}
	return nil
}

// havingServerSafe reports whether a HAVING clause uses only COUNT
// aggregates and constants, which the server can evaluate directly.
func havingServerSafe(e sqlparser.Expr) bool {
	switch x := e.(type) {
	case *sqlparser.BinaryExpr:
		return havingServerSafe(x.L) && havingServerSafe(x.R)
	case *sqlparser.UnaryExpr:
		return havingServerSafe(x.E)
	case *sqlparser.FuncCall:
		return x.Name == "COUNT" && x.Star
	case *sqlparser.IntLit, *sqlparser.StrLit, *sqlparser.NullLit, *sqlparser.BoolLit, *sqlparser.Param:
		return true
	}
	return false
}

// decodeResult applies the plan: filter (proxy HAVING), sort, limit, then
// decrypt into logical columns.
func (p *Proxy) decodeResult(res *sqldb.Result, plan *selectPlan) (*sqldb.Result, error) {
	rows := res.Rows

	if plan.havingDec != nil {
		kept := rows[:0]
		for _, row := range rows {
			v, err := plan.havingDec(row)
			if err != nil {
				return nil, err
			}
			if v.Truthy() {
				kept = append(kept, row)
			}
		}
		rows = kept
	}

	if len(plan.sortKeys) > 0 {
		type keyed struct {
			row  []sqldb.Value
			keys []sqldb.Value
		}
		ks := make([]keyed, len(rows))
		if err := forEachRow(p.batchWorkers(), len(rows), func(i int) error {
			row := rows[i]
			ks[i].row = row
			ks[i].keys = make([]sqldb.Value, len(plan.sortKeys))
			for j, sk := range plan.sortKeys {
				v, err := sk.dec(row)
				if err != nil {
					return err
				}
				ks[i].keys[j] = v
			}
			return nil
		}); err != nil {
			return nil, err
		}
		sort.SliceStable(ks, func(i, j int) bool {
			for k, sk := range plan.sortKeys {
				c := compareValues(ks[i].keys[k], ks[j].keys[k])
				if c == 0 {
					continue
				}
				if sk.desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
		for i := range ks {
			rows[i] = ks[i].row
		}
	}

	if plan.offset != nil {
		if *plan.offset >= int64(len(rows)) {
			rows = nil
		} else {
			rows = rows[*plan.offset:]
		}
	}
	if plan.limit != nil && *plan.limit < int64(len(rows)) {
		rows = rows[:*plan.limit]
	}

	out := &sqldb.Result{Columns: plan.names}
	if len(rows) == 0 {
		return out, nil
	}
	// Row-parallel decryption: each worker decrypts whole rows into their
	// original slots, so output order matches the serial path exactly.
	decrypted := make([][]sqldb.Value, len(rows))
	if err := forEachRow(p.batchWorkers(), len(rows), func(r int) error {
		logical := make([]sqldb.Value, len(plan.decs))
		for i, dec := range plan.decs {
			v, err := dec(rows[r])
			if err != nil {
				return err
			}
			logical[i] = v
		}
		decrypted[r] = logical
		return nil
	}); err != nil {
		return nil, err
	}
	out.Rows = decrypted
	return out, nil
}

func compareValues(a, b sqldb.Value) int {
	if a.IsNull() && b.IsNull() {
		return 0
	}
	if a.IsNull() {
		return -1
	}
	if b.IsNull() {
		return 1
	}
	c, err := a.Compare(b)
	if err != nil {
		return 0
	}
	return c
}

//
// INSERT
//

func (sess *Session) execInsert(s *sqlparser.InsertStmt, params []sqldb.Value) (*sqldb.Result, error) {
	p := sess.p
	p.mu.RLock()
	defer p.mu.RUnlock()
	tm, ok := p.tables[s.Table]
	if !ok {
		return nil, fmt.Errorf("proxy: no table %s", s.Table)
	}
	if p.training {
		return &sqldb.Result{}, nil
	}

	cols := s.Columns
	if len(cols) == 0 {
		cols = make([]string, len(tm.Cols))
		for i, cm := range tm.Cols {
			cols[i] = cm.Logical
		}
	}
	colMeta := make([]*ColumnMeta, len(cols))
	for i, name := range cols {
		cm := tm.Col(name)
		if cm == nil {
			return nil, fmt.Errorf("proxy: no column %s.%s", s.Table, name)
		}
		colMeta[i] = cm
	}

	server := &sqlparser.InsertStmt{Table: tm.Anon}
	server.Columns = append(server.Columns, "rid")
	for _, cm := range colMeta {
		switch {
		case cm.Plain:
			server.Columns = append(server.Columns, cm.Anon)
		case cm.EncFor != nil:
			server.Columns = append(server.Columns, cm.mpCol())
		default:
			for _, o := range cm.onionList() {
				server.Columns = append(server.Columns, cm.onionCol(o))
			}
			server.Columns = append(server.Columns, cm.ivCol())
		}
	}

	// Evaluate every row's logical values first (needed for ENC FOR owner
	// resolution and the OPE batch pre-pass), and pre-assign rids in row
	// order so parallel encryption cannot reorder them.
	logicalRows := make([][]sqldb.Value, len(s.Rows))
	rids := make([]int64, len(s.Rows))
	for r, exprRow := range s.Rows {
		if len(exprRow) != len(colMeta) {
			return nil, fmt.Errorf("proxy: INSERT has %d values for %d columns", len(exprRow), len(colMeta))
		}
		logical := make([]sqldb.Value, len(exprRow))
		for i, e := range exprRow {
			v, err := sqldb.EvalConst(e, params)
			if err != nil {
				return nil, fmt.Errorf("proxy: INSERT values must be constants: %w", err)
			}
			logical[i] = v
		}
		logicalRows[r] = logical
		rids[r] = tm.nextRid.Add(1)
	}

	// §3.1 batch optimization: encrypt each column's Ord plaintexts in one
	// sorted pass, then fan the remaining per-row onion work across the
	// worker pool. Rows land at their original index.
	p.prewarmOPE(colMeta, logicalRows)
	serverRows := make([][]sqlparser.Expr, len(s.Rows))
	err := forEachRow(p.batchWorkers(), len(s.Rows), func(r int) error {
		row, err := p.encryptInsertRow(tm, colMeta, logicalRows[r], rids[r])
		if err != nil {
			return err
		}
		serverRows[r] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	server.Rows = serverRows
	sess.markTouched(tm.Logical)
	return sess.db.Exec(server)
}

// encryptInsertRow produces the server-side expression row (rid plus every
// onion column literal) for one logical INSERT row. It is called from the
// batch worker pool and must only use concurrency-safe proxy state.
func (p *Proxy) encryptInsertRow(tm *TableMeta, colMeta []*ColumnMeta, logical []sqldb.Value, rid int64) ([]sqlparser.Expr, error) {
	ownerValue := func(ownerCol string) (sqldb.Value, bool) {
		for i, cm := range colMeta {
			if cm.Logical == ownerCol {
				return logical[i], true
			}
		}
		return sqldb.Value{}, false
	}

	row := []sqlparser.Expr{&sqlparser.IntLit{V: rid}}
	for i, cm := range colMeta {
		v := logical[i]
		switch {
		case cm.Plain:
			row = append(row, valueToExpr(v))
		case cm.EncFor != nil:
			if p.princ == nil {
				return nil, fmt.Errorf("proxy: column %s.%s is ENC FOR a principal; enable multi-principal mode",
					tm.Logical, cm.Logical)
			}
			ov, ok := ownerValue(cm.EncFor.OwnerColumn)
			if !ok {
				return nil, fmt.Errorf("proxy: INSERT into %s must set owner column %s for ENC FOR column %s",
					tm.Logical, cm.EncFor.OwnerColumn, cm.Logical)
			}
			ct, err := p.princ.EncryptFor(cm.EncFor.PrincType, ov.String(), tm.Logical, cm.Logical, v)
			if err != nil {
				return nil, err
			}
			row = append(row, valueToExpr(ct))
		default:
			vals, err := p.encryptRowValue(cm, v)
			if err != nil {
				return nil, err
			}
			row = append(row, vals...)
		}
	}
	return row, nil
}

// encryptRowValue produces the onion column literals plus IV for one value.
func (p *Proxy) encryptRowValue(cm *ColumnMeta, v sqldb.Value) ([]sqlparser.Expr, error) {
	var out []sqlparser.Expr
	if v.IsNull() {
		for range cm.onionList() {
			out = append(out, &sqlparser.NullLit{})
		}
		out = append(out, &sqlparser.NullLit{}) // IV
		return out, nil
	}
	coerced, err := coerceToColumn(cm, v)
	if err != nil {
		return nil, fmt.Errorf("proxy: %s.%s: %w", cm.Table.Logical, cm.Logical, err)
	}
	if cm.HasOnion(onion.Ord) && !cm.present(onion.Ord) {
		// The value is not OPE-encrypted now, but it must be encryptable
		// when the onion is materialised: refuse out-of-domain integers
		// here, as an eager Ord onion does.
		if _, err := opeEncode(coerced); err != nil {
			return nil, err
		}
	}
	iv, err := newIV()
	if err != nil {
		return nil, err
	}
	for _, o := range cm.onionList() {
		ct, err := p.encryptOnion(cm, onionAt{o: o, layer: cm.Onions[o].Current()}, coerced, iv)
		if err != nil {
			return nil, err
		}
		out = append(out, valueToExpr(ct))
	}
	out = append(out, &sqlparser.BytesLit{V: iv})
	return out, nil
}

//
// UPDATE
//

// updatePlan is an UPDATE's build: the one server statement of the direct
// path, or the SELECT and per-row assignments of the two-query strategy
// (§3.3).
type updatePlan struct {
	tm     *TableMeta
	server *sqlparser.UpdateStmt // direct path
	incs   []*ColumnMeta         // columns a HOM increment leaves stale

	sel    *sqlparser.SelectStmt // two-query path; nil on the direct one
	ridIdx int
	rows   []assignPlan
}

// assignPlan computes one assignment of the two-query strategy per row.
type assignPlan struct {
	cm       *ColumnMeta
	valDec   decoder      // nil for const
	constVal *sqldb.Value // for updConst
	ownerDec decoder      // for ENC FOR targets
}

func (sess *Session) execUpdate(s *sqlparser.UpdateStmt, params []sqldb.Value) (*sqldb.Result, error) {
	p := sess.p
	var up *updatePlan
	release, err := p.prepare(func() (*analysis, error) {
		qs, err := p.buildScope([]sqlparser.TableRef{{Table: s.Table}})
		if err != nil {
			return nil, err
		}
		b := newPlanBuilder(p, qs, params)
		up, err = b.buildUpdate(s)
		return &b.an, err
	})
	if err != nil {
		return nil, err
	}
	defer release()
	if p.training {
		return &sqldb.Result{}, nil
	}
	if up.sel != nil {
		return sess.execTwoQueryUpdate(up)
	}

	// The other onions of an incremented column are now stale (§3.3).
	madeStale := false
	for _, cm := range up.incs {
		cm.mu.Lock()
		if !cm.Stale[onion.Eq] {
			madeStale = true
		}
		cm.Stale[onion.Eq] = true
		cm.Stale[onion.JAdj] = true
		cm.Stale[onion.Ord] = true
		cm.mu.Unlock()
	}
	sess.markTouched(up.tm.Logical)
	if madeStale && p.persistent() {
		// First increment against a clean column: commit the staleness
		// flags in the same WAL batch as the hom_add UPDATE. Inside a
		// client transaction both ride its commit — a ROLLBACK discards
		// the increment and the flags together.
		p.metaMu.Lock()
		defer p.metaMu.Unlock()
		sealed, err := p.sealedMetaLocked()
		if err != nil {
			return nil, err
		}
		return sess.db.ExecWithMeta(up.server, sealed)
	}
	return sess.db.Exec(up.server)
}

// buildUpdate rewrites the WHERE, classifies the SET clauses and builds
// whichever strategy they need.
func (b *planBuilder) buildUpdate(s *sqlparser.UpdateStmt) (*updatePlan, error) {
	p := b.p
	up := &updatePlan{tm: b.qs.entries[0].tm}
	where, err := b.rewritePredicate(s.Where, false)
	if err != nil {
		return nil, err
	}
	assigns, err := b.classifySet(s)
	if err != nil {
		return nil, err
	}

	// Any two-query or ENC FOR assignment forces the read-modify-write
	// strategy (§3.3).
	for _, a := range assigns {
		if a.kind == updTwoQuery || (a.kind == updConst && a.cm.EncFor != nil) {
			return up, b.buildTwoQuery(up, assigns, where)
		}
	}

	up.server = &sqlparser.UpdateStmt{Table: up.tm.Anon, Where: where}
	for _, a := range assigns {
		switch a.kind {
		case updPassthrough:
			val, err := b.renamePlain(a.value, false, "")
			if err != nil {
				return nil, err
			}
			up.server.Assignments = append(up.server.Assignments,
				sqlparser.Assignment{Column: a.cm.Anon, Value: val})

		case updConst:
			v, err := sqldb.EvalConst(a.value, b.params)
			if err != nil {
				return nil, err
			}
			if a.cm.Plain {
				up.server.Assignments = append(up.server.Assignments,
					sqlparser.Assignment{Column: a.cm.Anon, Value: valueToExpr(v)})
				continue
			}
			exprs, err := p.encryptRowValue(a.cm, v)
			if err != nil {
				return nil, err
			}
			for i, name := range onionColNames(a.cm) {
				up.server.Assignments = append(up.server.Assignments,
					sqlparser.Assignment{Column: name, Value: exprs[i]})
			}

		case updIncrement:
			ct, err := p.homKey.EncryptInt64(a.delta)
			if err != nil {
				return nil, err
			}
			up.server.Assignments = append(up.server.Assignments, sqlparser.Assignment{
				Column: a.cm.onionCol(onion.Add),
				Value: &sqlparser.FuncCall{
					Name: "hom_add",
					Args: []sqlparser.Expr{
						&sqlparser.ColRef{Column: a.cm.onionCol(onion.Add)},
						&sqlparser.BytesLit{V: p.homKey.CiphertextBytes(ct)},
					},
				},
			})
			up.incs = append(up.incs, a.cm)
		}
	}
	return up, nil
}

// onionColNames lists the server columns written by encryptRowValue, in the
// same order.
func onionColNames(cm *ColumnMeta) []string {
	var names []string
	for _, o := range cm.onionList() {
		names = append(names, cm.onionCol(o))
	}
	names = append(names, cm.ivCol())
	return names
}

// buildTwoQuery plans §3.3's strategy for updates the server cannot
// compute: SELECT the old rows (decoders for every column an assignment
// reads, plus owner columns of ENC FOR targets), compute new values at the
// proxy, then UPDATE each row by hidden row id.
func (b *planBuilder) buildTwoQuery(up *updatePlan, assigns []updateAssign, where sqlparser.Expr) error {
	up.ridIdx = b.addServer(&sqlparser.ColRef{Column: "rid"})
	for _, a := range assigns {
		ap := assignPlan{cm: a.cm}
		if a.kind == updConst {
			v, err := sqldb.EvalConst(a.value, b.params)
			if err != nil {
				return err
			}
			ap.constVal = &v
		} else {
			dec, err := b.exprDecoder(a.value)
			if err != nil {
				return err
			}
			ap.valDec = dec
		}
		if a.cm.EncFor != nil {
			dec, err := b.fetchCol(up.tm.Col(a.cm.EncFor.OwnerColumn), anonAlias(0))
			if err != nil {
				return err
			}
			ap.ownerDec = dec
		}
		up.rows = append(up.rows, ap)
	}
	up.sel = &sqlparser.SelectStmt{
		Exprs: b.srv,
		From:  []sqlparser.TableRef{{Table: up.tm.Anon, Alias: anonAlias(0)}},
		Where: where,
	}
	return nil
}

// execTwoQueryUpdate runs the two-query strategy buildTwoQuery planned.
func (sess *Session) execTwoQueryUpdate(up *updatePlan) (*sqldb.Result, error) {
	p := sess.p
	tm := up.tm
	res, err := sess.db.Exec(up.sel)
	if err != nil {
		return nil, err
	}

	// The strategy issues one server-side UPDATE per matched row. Make the
	// logical statement atomic: if the client has no transaction open,
	// wrap the per-row writes in one, so a mid-loop failure (write
	// conflict, encryption error) rolls back the rows already written
	// instead of leaving a partially applied UPDATE. Inside a client
	// transaction the rows buffer into it as before. Over a sharded
	// engine the matched rows live on different shards and a transaction
	// cannot span them: outside a client transaction the per-row UPDATEs
	// autocommit individually (each row's rid-targeted write routes to a
	// single shard and is atomic there; the statement loses only mid-loop
	// atomicity), but *inside* a client transaction a multi-row rewrite
	// must be refused up front — otherwise rows routing to the pinned
	// shard would buffer, a later row routing elsewhere would error, and
	// the client's COMMIT would persist a half-applied UPDATE.
	if sess.db.InTxn() && p.db.Shards() > 1 && len(res.Rows) > 1 {
		return nil, fmt.Errorf("proxy: UPDATE matches %d rows inside a transaction over a sharded store; transactions are single-shard — run it outside the transaction or target one row", len(res.Rows))
	}
	ownTxn := !sess.db.InTxn() && p.db.Shards() == 1
	if ownTxn {
		if _, err := sess.db.Exec(&sqlparser.BeginStmt{}); err != nil {
			return nil, err
		}
	}
	sess.markTouched(tm.Logical)
	abort := func(err error) (*sqldb.Result, error) {
		if ownTxn {
			sess.db.Exec(&sqlparser.RollbackStmt{}) //nolint:errcheck // already failing
			sess.resetTouched()
		}
		return nil, err
	}
	affected := 0
	for _, row := range res.Rows {
		upd := &sqlparser.UpdateStmt{
			Table: tm.Anon,
			Where: &sqlparser.BinaryExpr{Op: "=",
				L: &sqlparser.ColRef{Column: "rid"},
				R: &sqlparser.IntLit{V: row[up.ridIdx].I}},
		}
		for _, ap := range up.rows {
			var newVal sqldb.Value
			if ap.constVal != nil {
				newVal = *ap.constVal
			} else {
				v, err := ap.valDec(row)
				if err != nil {
					return abort(err)
				}
				newVal = v
			}
			cm := ap.cm
			switch {
			case cm.Plain:
				upd.Assignments = append(upd.Assignments,
					sqlparser.Assignment{Column: cm.Anon, Value: valueToExpr(newVal)})
			case cm.EncFor != nil:
				if p.princ == nil {
					return abort(fmt.Errorf("proxy: ENC FOR column requires multi-principal mode"))
				}
				ov, err := ap.ownerDec(row)
				if err != nil {
					return abort(err)
				}
				ct, err := p.princ.EncryptFor(cm.EncFor.PrincType, ov.String(), tm.Logical, cm.Logical, newVal)
				if err != nil {
					return abort(err)
				}
				upd.Assignments = append(upd.Assignments,
					sqlparser.Assignment{Column: cm.mpCol(), Value: valueToExpr(ct)})
			default:
				exprs, err := p.encryptRowValue(cm, newVal)
				if err != nil {
					return abort(err)
				}
				for i, name := range onionColNames(cm) {
					upd.Assignments = append(upd.Assignments,
						sqlparser.Assignment{Column: name, Value: exprs[i]})
				}
			}
		}
		if _, err := sess.db.Exec(upd); err != nil {
			return abort(err)
		}
		affected++
	}
	if ownTxn {
		if _, err := sess.db.Exec(&sqlparser.CommitStmt{}); err != nil {
			sess.resetTouched()
			return nil, err
		}
		sess.resetTouched()
	}
	return &sqldb.Result{Affected: affected}, nil
}

//
// DELETE
//

func (sess *Session) execDelete(s *sqlparser.DeleteStmt, params []sqldb.Value) (*sqldb.Result, error) {
	p := sess.p
	var tm *TableMeta
	var where sqlparser.Expr
	release, err := p.prepare(func() (*analysis, error) {
		qs, err := p.buildScope([]sqlparser.TableRef{{Table: s.Table}})
		if err != nil {
			return nil, err
		}
		b := newPlanBuilder(p, qs, params)
		tm = qs.entries[0].tm
		where, err = b.rewritePredicate(s.Where, false)
		return &b.an, err
	})
	if err != nil {
		return nil, err
	}
	defer release()
	if p.training {
		return &sqldb.Result{}, nil
	}
	sess.markTouched(tm.Logical)
	return sess.db.Exec(&sqlparser.DeleteStmt{Table: tm.Anon, Where: where})
}
