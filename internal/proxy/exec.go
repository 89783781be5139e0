package proxy

import (
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/onion"
	"repro/internal/sqldb"
	"repro/internal/sqlparser"
)

// Execute parses and runs one logical SQL statement through the proxy:
// analyze -> adjust onions -> rewrite -> run on the DBMS -> decrypt (§3,
// steps 1-4). Parsed statements are memoized in a bounded LRU keyed by the
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
	if p.astCache == nil || len(sql) > astCacheMaxSQL {
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

// adjNeeded reports whether applying the analysis would mutate proxy state
// (onion layers, join groups, stale resync). In the trained steady state
// this returns false and queries proceed under the read lock, preserving
// server-side parallelism (§8.4.1's "no server-side decryptions in the
// steady state").
func (p *Proxy) adjNeeded(an *analysis) bool {
	if len(an.unsupported) > 0 && p.opts.Training {
		return true
	}
	// atOrBelow treats a discarded onion (nil state) as needing the slow
	// path, which produces the proper "no such onion" error, and a deferred
	// one likewise: the slow path materialises it.
	atOrBelow := func(st *onion.State, l onion.Layer) bool {
		return st != nil && !st.Deferred && st.AtOrBelow(l)
	}
	for _, r := range an.reqs {
		switch r.class {
		case onion.ClassEquality:
			if r.cm.Stale[onion.Eq] || !atOrBelow(r.cm.Onions[onion.Eq], onion.DET) {
				return true
			}
		case onion.ClassOrder:
			if r.cm.Stale[onion.Eq] || !atOrBelow(r.cm.Onions[onion.Ord], onion.OPE) {
				return true
			}
		case onion.ClassJoin:
			if r.cm.Stale[onion.Eq] || (r.joinWith != nil && r.joinWith.Stale[onion.Eq]) {
				return true
			}
			if !atOrBelow(r.cm.Onions[onion.JAdj], onion.JOIN) {
				return true
			}
			if r.joinWith != nil && !atOrBelow(r.joinWith.Onions[onion.JAdj], onion.JOIN) {
				return true
			}
			if r.joinWith != nil && r.cm.groupRoot() != r.joinWith.groupRoot() {
				return true
			}
			// Roots match but lazily converging keys may still differ.
			if r.joinWith != nil && p.joinKey(r.cm) != p.joinKey(r.joinWith) {
				return true
			}
		case onion.ClassRangeJoin:
			if !atOrBelow(r.cm.Onions[onion.Ord], onion.OPE) ||
				(r.joinWith != nil && !atOrBelow(r.joinWith.Onions[onion.Ord], onion.OPE)) {
				return true
			}
		case onion.ClassSum, onion.ClassIncrement:
			// No layer change, but first use materialises a deferred Add
			// onion and records the usage flag for the §8.3 analysis.
			if !r.cm.UsedSum || !r.cm.present(onion.Add) {
				return true
			}
		case onion.ClassSearch:
			if !r.cm.UsedSearch || !r.cm.present(onion.Search) {
				return true
			}
		case onion.ClassPlaintext:
			return true
		}
	}
	return false
}

// prepare analyzes a statement and applies adjustments, choosing between
// the read-locked fast path and the write-locked adjustment path.
// The returned function releases the lock it acquired.
func (p *Proxy) prepare(analyze func() (*analysis, error)) (release func(), err error) {
	p.mu.RLock()
	an, err := analyze()
	if err != nil {
		p.mu.RUnlock()
		return nil, err
	}
	if !p.adjNeeded(an) {
		if len(an.unsupported) > 0 && !p.opts.Training {
			p.mu.RUnlock()
			return nil, fmt.Errorf("proxy: query not executable over encrypted data: %s", an.unsupported[0])
		}
		return p.mu.RUnlock, nil
	}
	p.mu.RUnlock()

	p.mu.Lock()
	// Re-analyze under the write lock: state may have moved.
	an, err = analyze()
	if err != nil {
		p.mu.Unlock()
		return nil, err
	}
	if err := p.applyRequirements(an); err != nil {
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
	var qs *qscope
	release, err := p.prepare(func() (*analysis, error) {
		var err error
		qs, err = p.buildScope(s.From)
		if err != nil {
			return nil, err
		}
		an := p.analyzeSelect(s, qs, params)
		if s.Distinct {
			for _, se := range s.Exprs {
				if se.Star {
					continue
				}
				if cm, ok := pureCol(se.Expr, qs); ok {
					an.addReq(cm, onion.ClassEquality)
				}
			}
		}
		return an, nil
	})
	if err != nil {
		return nil, err
	}
	defer release()

	if p.opts.Training {
		return &sqldb.Result{}, nil
	}

	server, plan, err := p.buildSelect(s, qs, params)
	if err != nil {
		return nil, err
	}
	res, err := sess.db.Exec(server)
	if err != nil {
		return nil, fmt.Errorf("proxy: server error: %w", err)
	}
	return p.decodeResult(res, plan)
}

// buildSelect constructs the server-side SELECT and the decryption plan.
func (p *Proxy) buildSelect(s *sqlparser.SelectStmt, qs *qscope, params []sqldb.Value) (*sqlparser.SelectStmt, *selectPlan, error) {
	b := newPlanBuilder(p, qs, params)
	plan := &selectPlan{}
	server := &sqlparser.SelectStmt{Distinct: s.Distinct}

	hasFrom := len(s.From) > 0
	useAlias := hasFrom

	// FROM with anonymized tables and aliases a1..aN.
	for i, ref := range s.From {
		tm := qs.entries[i].tm
		srvRef := sqlparser.TableRef{Table: tm.Anon, Alias: anonAlias(i)}
		if ref.JoinOn != nil {
			on, err := p.rewritePredicate(ref.JoinOn, qs, params, true)
			if err != nil {
				return nil, nil, err
			}
			srvRef.JoinOn = on
		}
		server.From = append(server.From, srvRef)
	}

	// Projection.
	for _, se := range s.Exprs {
		if se.Star {
			for i, e := range qs.entries {
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
		if cr, ok := se.Expr.(*sqlparser.ColRef); ok && cr.Column == "*" {
			for i, e := range qs.entries {
				if e.alias != cr.Table && e.tm.Logical != cr.Table {
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

	// WHERE.
	where, err := p.rewritePredicate(s.Where, qs, params, useAlias)
	if err != nil {
		return nil, nil, err
	}
	server.Where = where

	// GROUP BY on Eq onions (DET) or plain columns.
	for _, g := range s.GroupBy {
		cm, alias, ok := resolvePure(g, qs)
		if !ok {
			return nil, nil, fmt.Errorf("proxy: GROUP BY over non-column")
		}
		col := cm.onionCol(onion.Eq)
		if cm.Plain {
			col = cm.Anon
		}
		server.GroupBy = append(server.GroupBy, &sqlparser.ColRef{Table: alias, Column: col})
	}

	// HAVING: COUNT-only conditions run on the server; anything touching
	// SUM/MIN/MAX/AVG filters at the proxy after decryption.
	if s.Having != nil {
		if havingServerSafe(s.Having) {
			hv, err := p.rewriteHavingServer(s.Having, qs)
			if err != nil {
				return nil, nil, err
			}
			server.Having = hv
		} else {
			dec, err := b.exprDecoder(s.Having)
			if err != nil {
				return nil, nil, err
			}
			plan.havingDec = dec
		}
	}

	// ORDER BY: in-proxy when possible (§3.5.1), on OPE otherwise.
	inProxySort := !p.opts.DisableInProxySort && s.Limit == nil
	for _, o := range s.OrderBy {
		cm, alias, isCol := resolvePure(o.Expr, qs)
		if isCol && cm.Plain && !inProxySort {
			server.OrderBy = append(server.OrderBy, sqlparser.OrderItem{
				Expr: &sqlparser.ColRef{Table: alias, Column: cm.Anon}, Desc: o.Desc,
			})
			continue
		}
		if !inProxySort {
			if isCol {
				server.OrderBy = append(server.OrderBy, sqlparser.OrderItem{
					Expr: &sqlparser.ColRef{Table: alias, Column: cm.onionCol(onion.Ord)},
					Desc: o.Desc,
				})
				continue
			}
			if fc, okFC := o.Expr.(*sqlparser.FuncCall); okFC && fc.Name == "COUNT" {
				dec, err := b.aggDecoder(fc)
				if err != nil {
					return nil, nil, err
				}
				_ = dec // count already in server list; order server-side
				srvFC := &sqlparser.FuncCall{Name: "COUNT", Star: fc.Star}
				server.OrderBy = append(server.OrderBy, sqlparser.OrderItem{Expr: srvFC, Desc: o.Desc})
				continue
			}
			return nil, nil, fmt.Errorf("proxy: ORDER BY expression with LIMIT not supported")
		}
		// In-proxy sort: resolve aliases of select items first.
		expr := o.Expr
		if isColAlias(o.Expr, s) != nil {
			expr = isColAlias(o.Expr, s)
		}
		dec, err := b.exprDecoder(expr)
		if err != nil {
			return nil, nil, err
		}
		plan.sortKeys = append(plan.sortKeys, sortKeyPlan{dec: dec, desc: o.Desc})
		atomic.AddInt64(&p.stats.InProxySorts, 1)
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

func (p *Proxy) rewriteHavingServer(e sqlparser.Expr, qs *qscope) (sqlparser.Expr, error) {
	switch x := e.(type) {
	case *sqlparser.BinaryExpr:
		l, err := p.rewriteHavingServer(x.L, qs)
		if err != nil {
			return nil, err
		}
		r, err := p.rewriteHavingServer(x.R, qs)
		if err != nil {
			return nil, err
		}
		return &sqlparser.BinaryExpr{Op: x.Op, L: l, R: r}, nil
	case *sqlparser.UnaryExpr:
		in, err := p.rewriteHavingServer(x.E, qs)
		if err != nil {
			return nil, err
		}
		return &sqlparser.UnaryExpr{Op: x.Op, E: in}, nil
	default:
		return e, nil
	}
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
		if int(*plan.offset) >= len(rows) {
			rows = nil
		} else {
			rows = rows[*plan.offset:]
		}
	}
	if plan.limit != nil && int(*plan.limit) < len(rows) {
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
	if p.opts.Training {
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
		rids[r] = atomic.AddInt64(&tm.nextRid, 1)
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
		ct, err := p.encryptOnion(cm, o, coerced, iv)
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

func (sess *Session) execUpdate(s *sqlparser.UpdateStmt, params []sqldb.Value) (*sqldb.Result, error) {
	p := sess.p
	var qs *qscope
	var assigns []updateAssign
	release, err := p.prepare(func() (*analysis, error) {
		var err error
		qs, err = p.buildScope([]sqlparser.TableRef{{Table: s.Table}})
		if err != nil {
			return nil, err
		}
		an, as, err := p.analyzeUpdate(s, qs, params)
		if err != nil {
			return nil, err
		}
		assigns = as
		return an, nil
	})
	if err != nil {
		return nil, err
	}
	defer release()
	if p.opts.Training {
		return &sqldb.Result{}, nil
	}

	tm := qs.entries[0].tm

	// Any two-query or ENC FOR assignment forces the read-modify-write
	// strategy (§3.3).
	needTwoQuery := false
	for _, a := range assigns {
		if a.kind == updTwoQuery || (a.kind == updConst && a.cm.EncFor != nil) {
			needTwoQuery = true
		}
	}
	if needTwoQuery {
		return sess.execTwoQueryUpdate(s, tm, qs, assigns, params)
	}

	where, err := p.rewritePredicate(s.Where, qs, params, false)
	if err != nil {
		return nil, err
	}
	server := &sqlparser.UpdateStmt{Table: tm.Anon, Where: where}

	madeStale := false
	for _, a := range assigns {
		switch a.kind {
		case updPassthrough:
			val, err := p.renamePlain(a.value, qs, false)
			if err != nil {
				return nil, err
			}
			server.Assignments = append(server.Assignments,
				sqlparser.Assignment{Column: a.cm.Anon, Value: val})

		case updConst:
			v, err := sqldb.EvalConst(a.value, params)
			if err != nil {
				return nil, err
			}
			if a.cm.Plain {
				server.Assignments = append(server.Assignments,
					sqlparser.Assignment{Column: a.cm.Anon, Value: valueToExpr(v)})
				continue
			}
			exprs, err := p.encryptRowValue(a.cm, v)
			if err != nil {
				return nil, err
			}
			names := onionColNames(a.cm)
			for i, name := range names {
				server.Assignments = append(server.Assignments,
					sqlparser.Assignment{Column: name, Value: exprs[i]})
			}

		case updIncrement:
			ct, err := p.homKey.EncryptInt64(a.delta)
			if err != nil {
				return nil, err
			}
			server.Assignments = append(server.Assignments, sqlparser.Assignment{
				Column: a.cm.onionCol(onion.Add),
				Value: &sqlparser.FuncCall{
					Name: "hom_add",
					Args: []sqlparser.Expr{
						&sqlparser.ColRef{Column: a.cm.onionCol(onion.Add)},
						&sqlparser.BytesLit{V: p.homKey.CiphertextBytes(ct)},
					},
				},
			})
			// The other onions of this column are now stale (§3.3).
			a.cm.mu.Lock()
			if !a.cm.Stale[onion.Eq] {
				madeStale = true
			}
			a.cm.Stale[onion.Eq] = true
			a.cm.Stale[onion.JAdj] = true
			a.cm.Stale[onion.Ord] = true
			a.cm.mu.Unlock()
		}
	}
	sess.markTouched(tm.Logical)
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
		return sess.db.ExecWithMeta(server, sealed)
	}
	return sess.db.Exec(server)
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

// execTwoQueryUpdate implements §3.3's strategy for updates the server
// cannot compute: SELECT the old rows, compute new values at the proxy,
// then UPDATE each row by hidden row id.
func (sess *Session) execTwoQueryUpdate(s *sqlparser.UpdateStmt, tm *TableMeta, qs *qscope, assigns []updateAssign, params []sqldb.Value) (*sqldb.Result, error) {
	p := sess.p
	b := newPlanBuilder(p, qs, params)
	ridIdx := b.addServer(&sqlparser.ColRef{Column: "rid"})

	// Decoders for every column referenced by any assignment expression,
	// plus owner columns for ENC FOR targets.
	type assignPlan struct {
		a        updateAssign
		valDec   decoder      // nil for const
		constVal *sqldb.Value // for updConst
		ownerDec decoder      // for ENC FOR targets
	}
	var plans []assignPlan
	for _, a := range assigns {
		ap := assignPlan{a: a}
		switch a.kind {
		case updConst:
			v, err := sqldb.EvalConst(a.value, params)
			if err != nil {
				return nil, err
			}
			ap.constVal = &v
		default:
			dec, err := b.exprDecoder(a.value)
			if err != nil {
				return nil, err
			}
			ap.valDec = dec
		}
		if a.cm.EncFor != nil {
			owner := tm.Col(a.cm.EncFor.OwnerColumn)
			dec, err := b.fetchCol(owner, anonAlias(0))
			if err != nil {
				return nil, err
			}
			ap.ownerDec = dec
		}
		plans = append(plans, ap)
	}

	where, err := p.rewritePredicate(s.Where, qs, params, true)
	if err != nil {
		return nil, err
	}
	sel := &sqlparser.SelectStmt{
		Exprs: b.srv,
		From:  []sqlparser.TableRef{{Table: tm.Anon, Alias: anonAlias(0)}},
		Where: where,
	}
	res, err := sess.db.Exec(sel)
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
				R: &sqlparser.IntLit{V: row[ridIdx].I}},
		}
		for _, ap := range plans {
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
			cm := ap.a.cm
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
	var qs *qscope
	release, err := p.prepare(func() (*analysis, error) {
		var err error
		qs, err = p.buildScope([]sqlparser.TableRef{{Table: s.Table}})
		if err != nil {
			return nil, err
		}
		an := &analysis{}
		p.analyzePredicate(s.Where, qs, params, an)
		return an, nil
	})
	if err != nil {
		return nil, err
	}
	defer release()
	if p.opts.Training {
		return &sqldb.Result{}, nil
	}

	where, err := p.rewritePredicate(s.Where, qs, params, false)
	if err != nil {
		return nil, err
	}
	sess.markTouched(qs.entries[0].tm.Logical)
	return sess.db.Exec(&sqlparser.DeleteStmt{Table: qs.entries[0].tm.Anon, Where: where})
}
