package sqldb

// This file lowers expressions and whole SELECT plans into closures, so
// rows are evaluated without re-walking the sqlparser AST: column
// references resolve to (table, column) positions once, operators dispatch
// once, and aggregate references become slot indexes. exprCompiler is the
// only expression evaluator: SELECT, the write path (VALUES, SET and
// UPDATE/DELETE predicates), the planner's constant folding and standalone
// evaluation (EvalExpr) all lower through it, so NULL comparisons,
// text<->int coercion, AND/OR short-circuit and integer division by zero
// mean one thing everywhere. Lowering is also where a statement is
// resolved: an unknown or ambiguous column, an unknown function or
// operator, an aggregate in row context — each is returned as an error
// here, once, before any row is read, so it never depends on what the
// tables hold. Errors that depend on a value (a comparison that cannot
// coerce, negating text) still surface per row. The reference expression
// evaluator, an AST walker kept in interp_test.go, is what these semantics
// are held to, by the equivalence tests and FuzzExprEval.

import (
	"fmt"

	"repro/internal/sqlparser"
)

// execEnv is the per-row evaluation environment of compiled expressions:
// the current joined tuple, the statement parameters, and — in grouped
// output context — the finalized aggregate values by slot.
type execEnv struct {
	tup    tuple
	params []Value
	aggs   []Value
	// lookup resolves column references in standalone mode (see EvalExpr).
	lookup func(table, col string) (Value, error)
}

// compiledExpr evaluates one lowered expression against an environment.
type compiledExpr func(ev *execEnv) (Value, error)

// colSlot is a resolved bare column reference: the hot aggregate and
// group-key paths read tup[ti][ci] directly instead of calling the
// compiled closure per row.
type colSlot struct {
	ti, ci int
	ok     bool
}

// bareColSlot resolves e when it is a plain column reference.
func bareColSlot(sc *scope, e sqlparser.Expr) colSlot {
	if cr, isCol := e.(*sqlparser.ColRef); isCol {
		if ti, ci, err := sc.resolve(cr.Table, cr.Column); err == nil {
			return colSlot{ti: ti, ci: ci, ok: true}
		}
	}
	return colSlot{}
}

// exprCompiler lowers expressions against one query scope. aggIdx is nil in
// row context; in grouped output context (projection, HAVING, ORDER BY over
// groups) it maps an aggregate call's printed form to its execEnv.aggs slot.
// Without a scope, column references call execEnv.lookup at run time;
// without a db, function calls are rejected. A compiler with neither is
// standalone mode (EvalExpr).
type exprCompiler struct {
	db     *DB
	sc     *scope
	aggIdx map[string]int
}

func (c *exprCompiler) compile(e sqlparser.Expr) (compiledExpr, error) {
	switch x := e.(type) {
	case *sqlparser.IntLit:
		v := Int(x.V)
		return func(*execEnv) (Value, error) { return v, nil }, nil
	case *sqlparser.StrLit:
		v := Text(x.V)
		return func(*execEnv) (Value, error) { return v, nil }, nil
	case *sqlparser.BytesLit:
		v := Blob(x.V)
		return func(*execEnv) (Value, error) { return v, nil }, nil
	case *sqlparser.NullLit:
		return func(*execEnv) (Value, error) { return Null(), nil }, nil
	case *sqlparser.BoolLit:
		v := Bool(x.V)
		return func(*execEnv) (Value, error) { return v, nil }, nil
	case *sqlparser.Param:
		idx := x.Index
		return func(ev *execEnv) (Value, error) {
			if idx >= len(ev.params) {
				return Value{}, fmt.Errorf("sqldb: missing parameter %d", idx+1)
			}
			return ev.params[idx], nil
		}, nil
	case *sqlparser.ColRef:
		if c.sc == nil {
			table, col := x.Table, x.Column
			return func(ev *execEnv) (Value, error) { return ev.lookup(table, col) }, nil
		}
		ti, ci, err := c.sc.resolve(x.Table, x.Column)
		if err != nil {
			return nil, err
		}
		return func(ev *execEnv) (Value, error) {
			if ev.tup == nil || ev.tup[ti] == nil {
				return Null(), nil
			}
			return ev.tup[ti][ci], nil
		}, nil
	case *sqlparser.BinaryExpr:
		return c.compileBinary(x)
	case *sqlparser.UnaryExpr:
		sub, err := c.compile(x.E)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case "NOT":
			return func(ev *execEnv) (Value, error) {
				v, err := sub(ev)
				if err != nil {
					return Value{}, err
				}
				if v.IsNull() {
					return Null(), nil
				}
				return Bool(!v.Truthy()), nil
			}, nil
		case "-":
			return func(ev *execEnv) (Value, error) {
				v, err := sub(ev)
				if err != nil {
					return Value{}, err
				}
				n, err := v.AsInt()
				if err != nil {
					return Value{}, err
				}
				return Int(-n), nil
			}, nil
		}
		return nil, fmt.Errorf("sqldb: unknown unary operator %q", x.Op)
	case *sqlparser.InExpr:
		sub, err := c.compile(x.E)
		if err != nil {
			return nil, err
		}
		items := make([]compiledExpr, len(x.List))
		for i, item := range x.List {
			ce, err := c.compile(item)
			if err != nil {
				return nil, err
			}
			items[i] = ce
		}
		not := x.Not
		return func(ev *execEnv) (Value, error) {
			v, err := sub(ev)
			if err != nil {
				return Value{}, err
			}
			if v.IsNull() {
				return Bool(not), nil
			}
			for _, item := range items {
				iv, err := item(ev)
				if err != nil {
					return Value{}, err
				}
				if v.Equal(iv) {
					return Bool(!not), nil
				}
			}
			return Bool(not), nil
		}, nil
	case *sqlparser.LikeExpr:
		sub, err := c.compile(x.E)
		if err != nil {
			return nil, err
		}
		pat, err := c.compile(x.Pattern)
		if err != nil {
			return nil, err
		}
		not := x.Not
		return func(ev *execEnv) (Value, error) {
			v, err := sub(ev)
			if err != nil {
				return Value{}, err
			}
			p, err := pat(ev)
			if err != nil {
				return Value{}, err
			}
			if v.IsNull() || p.IsNull() {
				return Bool(false), nil
			}
			return Bool(likeMatch(valueText(v), valueText(p)) != not), nil
		}, nil
	case *sqlparser.BetweenExpr:
		sub, err := c.compile(x.E)
		if err != nil {
			return nil, err
		}
		lo, err := c.compile(x.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := c.compile(x.Hi)
		if err != nil {
			return nil, err
		}
		not := x.Not
		return func(ev *execEnv) (Value, error) {
			v, err := sub(ev)
			if err != nil {
				return Value{}, err
			}
			lv, err := lo(ev)
			if err != nil {
				return Value{}, err
			}
			hv, err := hi(ev)
			if err != nil {
				return Value{}, err
			}
			if v.IsNull() || lv.IsNull() || hv.IsNull() {
				return Bool(false), nil
			}
			cl, err := v.Compare(lv)
			if err != nil {
				return Value{}, err
			}
			ch, err := v.Compare(hv)
			if err != nil {
				return Value{}, err
			}
			return Bool((cl >= 0 && ch <= 0) != not), nil
		}, nil
	case *sqlparser.IsNullExpr:
		sub, err := c.compile(x.E)
		if err != nil {
			return nil, err
		}
		not := x.Not
		return func(ev *execEnv) (Value, error) {
			v, err := sub(ev)
			if err != nil {
				return Value{}, err
			}
			return Bool(v.IsNull() != not), nil
		}, nil
	case *sqlparser.FuncCall:
		return c.compileFuncCall(x)
	}
	return nil, fmt.Errorf("sqldb: cannot evaluate %T", e)
}

func (c *exprCompiler) compileFuncCall(x *sqlparser.FuncCall) (compiledExpr, error) {
	// Aggregate calls in grouped output context read their slot.
	if c.aggIdx != nil {
		if idx, ok := c.aggIdx[x.String()]; ok {
			return func(ev *execEnv) (Value, error) { return ev.aggs[idx], nil }, nil
		}
	}
	// Anything else is row context: an aggregate here sits outside a grouped
	// query's output clauses (in WHERE, ON or GROUP BY) or inside another
	// aggregate's argument.
	if isBuiltinAgg(x.Name) {
		return nil, fmt.Errorf("sqldb: aggregate %s in a non-aggregate context", x.Name)
	}
	if c.db == nil {
		return nil, fmt.Errorf("sqldb: no function %s in standalone evaluation", x.Name)
	}
	// The registries are stable for the duration of a statement (Exec holds
	// db.mu, RegisterUDF takes the write side), so resolving here is safe.
	fn, ok := c.db.udfs[x.Name]
	if _, isAgg := c.db.aggUDFs[x.Name]; isAgg && !ok {
		return nil, fmt.Errorf("sqldb: aggregate UDF %s in a non-aggregate context", x.Name)
	}
	if !ok {
		return nil, fmt.Errorf("sqldb: unknown function %s", x.Name)
	}
	args := make([]compiledExpr, len(x.Args))
	for i, a := range x.Args {
		ce, err := c.compile(a)
		if err != nil {
			return nil, err
		}
		args[i] = ce
	}
	return func(ev *execEnv) (Value, error) {
		vals := make([]Value, len(args))
		for i, a := range args {
			v, err := a(ev)
			if err != nil {
				return Value{}, err
			}
			vals[i] = v
		}
		return fn(vals)
	}, nil
}

// Comparison opcodes, resolved at compile time.
const (
	cmpEq = iota
	cmpNe
	cmpLt
	cmpLe
	cmpGt
	cmpGe
)

func (c *exprCompiler) compileBinary(x *sqlparser.BinaryExpr) (compiledExpr, error) {
	l, err := c.compile(x.L)
	if err != nil {
		return nil, err
	}
	r, err := c.compile(x.R)
	if err != nil {
		return nil, err
	}
	switch x.Op {
	case "AND":
		return func(ev *execEnv) (Value, error) {
			lv, err := l(ev)
			if err != nil {
				return Value{}, err
			}
			if !lv.IsNull() && !lv.Truthy() {
				return Bool(false), nil
			}
			rv, err := r(ev)
			if err != nil {
				return Value{}, err
			}
			return Bool(lv.Truthy() && rv.Truthy()), nil
		}, nil
	case "OR":
		return func(ev *execEnv) (Value, error) {
			lv, err := l(ev)
			if err != nil {
				return Value{}, err
			}
			if lv.Truthy() {
				return Bool(true), nil
			}
			rv, err := r(ev)
			if err != nil {
				return Value{}, err
			}
			return Bool(rv.Truthy()), nil
		}, nil
	case "=", "!=", "<", "<=", ">", ">=":
		var op int
		switch x.Op {
		case "=":
			op = cmpEq
		case "!=":
			op = cmpNe
		case "<":
			op = cmpLt
		case "<=":
			op = cmpLe
		case ">":
			op = cmpGt
		default:
			op = cmpGe
		}
		return func(ev *execEnv) (Value, error) {
			lv, err := l(ev)
			if err != nil {
				return Value{}, err
			}
			rv, err := r(ev)
			if err != nil {
				return Value{}, err
			}
			if lv.IsNull() || rv.IsNull() {
				return Bool(false), nil
			}
			cmp, err := lv.Compare(rv)
			if err != nil {
				return Value{}, err
			}
			var out bool
			switch op {
			case cmpEq:
				out = cmp == 0
			case cmpNe:
				out = cmp != 0
			case cmpLt:
				out = cmp < 0
			case cmpLe:
				out = cmp <= 0
			case cmpGt:
				out = cmp > 0
			case cmpGe:
				out = cmp >= 0
			}
			return Bool(out), nil
		}, nil
	case "||":
		return func(ev *execEnv) (Value, error) {
			lv, err := l(ev)
			if err != nil {
				return Value{}, err
			}
			rv, err := r(ev)
			if err != nil {
				return Value{}, err
			}
			if lv.IsNull() || rv.IsNull() {
				return Null(), nil
			}
			return Text(valueText(lv) + valueText(rv)), nil
		}, nil
	case "+", "-", "*", "/", "%", "&", "|", "^":
		op := x.Op[0]
		return func(ev *execEnv) (Value, error) {
			lv, err := l(ev)
			if err != nil {
				return Value{}, err
			}
			rv, err := r(ev)
			if err != nil {
				return Value{}, err
			}
			if lv.IsNull() || rv.IsNull() {
				return Null(), nil
			}
			a, err := lv.AsInt()
			if err != nil {
				return Value{}, err
			}
			b, err := rv.AsInt()
			if err != nil {
				return Value{}, err
			}
			switch op {
			case '+':
				return Int(a + b), nil
			case '-':
				return Int(a - b), nil
			case '*':
				return Int(a * b), nil
			case '/':
				if b == 0 {
					return Null(), nil
				}
				return Int(a / b), nil
			case '%':
				if b == 0 {
					return Null(), nil
				}
				return Int(a % b), nil
			case '&':
				return Int(a & b), nil
			case '|':
				return Int(a | b), nil
			default:
				return Int(a ^ b), nil
			}
		}, nil
	}
	return nil, fmt.Errorf("sqldb: unknown operator %q", x.Op)
}

//
// SELECT lowering: plan -> operator pipeline.
//

// compiledOrder is one lowered ORDER BY key.
type compiledOrder struct {
	key  compiledExpr
	desc bool
}

// compiledSelect is a SELECT lowered into a source pipeline (scan + join
// operators) plus compiled filter, grouping, projection and ordering. It is
// built per execution (access paths embed the parameters) and run once.
type compiledSelect struct {
	db     *DB
	s      *sqlparser.SelectStmt
	sc     *scope
	params []Value

	src     rowSource
	seedAcc access
	hasSeed bool

	where compiledExpr // nil when the statement has no WHERE
	// usedWhere marks WHERE conjuncts a hash join consumed as equi-key
	// columns; the filter skips them (the join enforces the equality).
	usedWhere map[sqlparser.Expr]bool

	grouped       bool
	groupKeys     []compiledExpr
	groupKeySlots []colSlot // direct reads for bare-column group keys
	aggs          []aggSpec
	having        compiledExpr // nil when absent

	cols     []string
	proj     []compiledExpr
	orderBy  []compiledOrder
	projMem  []Value // chunk result rows are carved from (projectInto)
	projRows int     // rows in the last chunk carved into projMem
}

// aggSpec builds one aggregate accumulator per group.
type aggSpec struct {
	newAcc func() vAgg
}

// compileSelect resolves and lowers s into a compiledSelect. Every name,
// function and aggregate placement in the statement is checked here, so a
// malformed statement fails identically on an empty and on a populated
// table. aggCalls is the pre-collected aggregate list from execSelect.
func (db *DB) compileSelect(s *sqlparser.SelectStmt, sc *scope, aggCalls []*sqlparser.FuncCall, params []Value) (*compiledSelect, error) {
	cp := &compiledSelect{db: db, s: s, sc: sc, params: params}
	cp.grouped = len(s.GroupBy) > 0 || len(aggCalls) > 0

	rowc := &exprCompiler{db: db, sc: sc}

	// Source pipeline: scans and joins.
	if err := cp.compileSource(rowc); err != nil {
		return nil, err
	}

	// Conjuncts consumed as hash-join keys are already enforced on every
	// joined tuple; filter on the rest, in their left-to-right AND order.
	// With none consumed the filter is the WHERE clause as written.
	where := s.Where
	if len(cp.usedWhere) > 0 {
		var remaining []sqlparser.Expr
		for _, pred := range conjuncts(s.Where) {
			if !cp.usedWhere[pred] {
				remaining = append(remaining, pred)
			}
		}
		where = andOf(remaining)
	}
	if where != nil {
		var err error
		if cp.where, err = rowc.compile(where); err != nil {
			return nil, err
		}
	}

	// Output context: grouped queries project over aggregate slots.
	outc := rowc
	if cp.grouped {
		// Deduplicate aggregate calls by printed form and lower each into
		// an accumulator factory.
		uniq := make(map[string]int)
		for _, fc := range aggCalls {
			key := fc.String()
			if _, ok := uniq[key]; ok {
				continue
			}
			spec, err := db.compileAgg(rowc, fc)
			if err != nil {
				return nil, err
			}
			uniq[key] = len(cp.aggs)
			cp.aggs = append(cp.aggs, spec)
		}
		for _, g := range s.GroupBy {
			ge, err := rowc.compile(g)
			if err != nil {
				return nil, err
			}
			cp.groupKeys = append(cp.groupKeys, ge)
			cp.groupKeySlots = append(cp.groupKeySlots, bareColSlot(sc, g))
		}
		outc = &exprCompiler{db: db, sc: sc, aggIdx: uniq}
		if s.Having != nil {
			h, err := outc.compile(s.Having)
			if err != nil {
				return nil, err
			}
			cp.having = h
		}
	} else if s.Having != nil {
		// There are no groups to filter; silently ignoring the clause would
		// return rows it was written to exclude.
		return nil, fmt.Errorf("sqldb: HAVING requires GROUP BY or an aggregate")
	}

	cols, exprs, err := db.projectionPlan(s, sc)
	if err != nil {
		return nil, err
	}
	cp.cols = cols
	for _, e := range exprs {
		pe, err := outc.compile(e)
		if err != nil {
			return nil, err
		}
		cp.proj = append(cp.proj, pe)
	}
	for _, item := range db.resolveOrderBy(s) {
		ke, err := outc.compile(item.Expr)
		if err != nil {
			return nil, err
		}
		cp.orderBy = append(cp.orderBy, compiledOrder{key: ke, desc: item.Desc})
	}
	return cp, nil
}

// compileAgg lowers one aggregate call into an accumulator factory.
// Argument expressions compile in row context, which is what rejects an
// aggregate nested inside another aggregate's argument.
func (db *DB) compileAgg(rowc *exprCompiler, fc *sqlparser.FuncCall) (aggSpec, error) {
	if factory, ok := db.aggUDFs[fc.Name]; ok {
		args := make([]compiledExpr, len(fc.Args))
		for i, a := range fc.Args {
			ce, err := rowc.compile(a)
			if err != nil {
				return aggSpec{}, err
			}
			args[i] = ce
		}
		return aggSpec{newAcc: func() vAgg { return &cUDFAcc{args: args, vals: make([]Value, len(args)), state: factory()} }}, nil
	}
	if fc.Name == "COUNT" && fc.Star {
		return aggSpec{newAcc: func() vAgg { return &cCountStarAcc{} }}, nil
	}
	if len(fc.Args) != 1 {
		return aggSpec{}, fmt.Errorf("sqldb: %s takes one argument", fc.Name)
	}
	arg, err := rowc.compile(fc.Args[0])
	if err != nil {
		return aggSpec{}, err
	}
	// A bare-column argument steps via a direct slot read, skipping the
	// closure call per row.
	slot := bareColSlot(rowc.sc, fc.Args[0])
	switch fc.Name {
	case "COUNT":
		if fc.Distinct {
			return aggSpec{newAcc: func() vAgg { return &cCountDistinctAcc{arg: arg, slot: slot, seen: map[string]bool{}} }}, nil
		}
		return aggSpec{newAcc: func() vAgg { return &cCountAcc{arg: arg, slot: slot} }}, nil
	case "SUM":
		return aggSpec{newAcc: func() vAgg { return &cSumAcc{arg: arg, slot: slot} }}, nil
	case "AVG":
		return aggSpec{newAcc: func() vAgg { return &cAvgAcc{arg: arg, slot: slot} }}, nil
	case "MIN":
		return aggSpec{newAcc: func() vAgg { return &cMinMaxAcc{arg: arg, slot: slot, min: true} }}, nil
	case "MAX":
		return aggSpec{newAcc: func() vAgg { return &cMinMaxAcc{arg: arg, slot: slot} }}, nil
	}
	return aggSpec{}, fmt.Errorf("sqldb: unknown aggregate %s", fc.Name)
}

// compileSource lowers the FROM clause into a chain of scan and join
// operators: one planned access path per table, explicit JOIN ... ON chains
// in written order, comma joins reordered by cost.
func (cp *compiledSelect) compileSource(rowc *exprCompiler) error {
	db, s, sc, params := cp.db, cp.s, cp.sc, cp.params
	if len(s.From) == 0 {
		cp.src = constSource{}
		return nil
	}

	conj := conjuncts(s.Where)
	accesses := make([]access, len(sc.tabs))
	if a, ok := cp.orderedAccess(conj); ok {
		accesses[0] = a
	} else {
		for ti := range sc.tabs {
			accesses[ti] = db.bestAccess(sc.tabs[ti].t, sc, ti, conj, params)
		}
	}
	commaJoin := len(sc.tabs) > 1
	for _, ref := range s.From {
		if ref.JoinOn != nil {
			commaJoin = false
			break
		}
	}
	order := joinOrder(s, accesses)
	if commaJoin && len(s.OrderBy) == 0 {
		// With no ORDER BY the result is order-insensitive, so the planner
		// is free to pick hash-join build sides by cost: stream the most
		// expensive access path and build hash tables over the cheaper ones.
		// (With an ORDER BY we keep joinOrder's seed so stable-sort ties
		// break the way the reference interpreter breaks them.)
		seed := 0
		for i, a := range accesses {
			if a.cost > accesses[seed].cost {
				seed = i
			}
		}
		order = make([]int, 0, len(sc.tabs))
		order = append(order, seed)
		for i := range sc.tabs {
			if i != seed {
				order = append(order, i)
			}
		}
	}

	seed := order[0]
	cp.seedAcc = accesses[seed]
	cp.hasSeed = true
	var src rowSource = &scanSource{t: sc.tabs[seed].t, acc: accesses[seed], ti: seed, ntabs: len(sc.tabs)}

	placed := make([]bool, len(sc.tabs))
	placed[seed] = true
	for k := 1; k < len(order); k++ {
		ti := order[k]
		ref := s.From[ti]

		keys, residual, err := cp.joinKeys(rowc, ref.JoinOn, conj, ti, placed)
		if err != nil {
			return err
		}
		if len(keys) > 0 {
			src = &hashJoinSource{
				db: db, inner: src, t: sc.tabs[ti].t, ti: ti, ntabs: len(sc.tabs),
				acc: accesses[ti], keys: keys, residual: residual, params: params,
			}
		} else {
			src = &loopJoinSource{
				db: db, inner: src, t: sc.tabs[ti].t, ti: ti, ntabs: len(sc.tabs),
				acc: accesses[ti], on: residual, params: params,
			}
		}
		placed[ti] = true
	}
	cp.src = src
	return nil
}

// orderedAccess walks the ordered index of the ORDER BY column of a
// single-table, ungrouped SELECT whose one ORDER BY item (aliases resolved)
// is a column with a kind-homogeneous ordered index, bounded by the
// column's sargable bounds: rows come out in result order, so runPlain
// sorts nothing and stops at the LIMIT (§3.3: ORDER BY and LIMIT run on OPE
// ciphertexts over ordinary ordered indexes). ok=false leaves the table to
// bestAccess, as for a table the reading transaction has written (the index
// orders committed rows only) and for bounds the index cannot serve (a scan
// preserves their evaluation errors). Nothing is costed: counting a wide
// range would walk it.
func (cp *compiledSelect) orderedAccess(conj []sqlparser.Expr) (access, bool) {
	s, sc := cp.s, cp.sc
	if cp.grouped || len(sc.tabs) != 1 || sc.tabs[0].ws != nil || len(s.OrderBy) != 1 {
		return access{}, false
	}
	cr, ok := cp.db.resolveOrderBy(s)[0].Expr.(*sqlparser.ColRef)
	if !ok {
		return access{}, false
	}
	_, pos, err := sc.resolve(cr.Table, cr.Column)
	if err != nil {
		return access{}, false
	}
	col := sc.tabs[0].t.Cols[pos].Name
	ix := sc.tabs[0].t.ordIndexes[col]
	if ix == nil {
		return access{}, false
	}
	if _, homogeneous := ix.soleKind(); !homogeneous {
		return access{}, false
	}
	a := access{kind: accessOrdered, idx: ix, rng: ordRange{all: true}, desc: s.OrderBy[0].Desc, pos: pos}
	if b := cp.db.sargBounds(conj, sc, 0, cp.params)[col]; b != nil {
		switch {
		case b.bad:
			return access{}, false
		case b.impossible:
			a.rng = ordRange{empty: true}
		default:
			if a.rng, ok = ix.rangeFor(b); !ok {
				return access{}, false
			}
		}
	}
	return a, true
}

// joinKeys extracts the multi-column equi-key for joining table ti: ON
// conjuncts of the form `placed-expr = ti.col` (either orientation), plus
// equivalent WHERE conjuncts, which for an inner join only prune pairs the
// final WHERE filter would reject anyway. Remaining ON conjuncts (and, for
// a WHERE-derived key, the full ON clause) become the residual filter
// evaluated on each joined tuple.
func (cp *compiledSelect) joinKeys(rowc *exprCompiler, on sqlparser.Expr, whereConj []sqlparser.Expr, ti int, placed []bool) ([]joinKey, compiledExpr, error) {
	sc := cp.sc
	var keys []joinKey
	var residual []sqlparser.Expr

	// tryKey reports whether pred is an equi-key conjunct for table ti; the
	// error is the probe side's resolve error.
	tryKey := func(pred sqlparser.Expr) (joinKey, bool, error) {
		b, ok := pred.(*sqlparser.BinaryExpr)
		if !ok || b.Op != "=" {
			return joinKey{}, false, nil
		}
		colOf := func(e sqlparser.Expr) (int, bool) {
			cr, ok := e.(*sqlparser.ColRef)
			if !ok {
				return 0, false
			}
			cti, ci, err := sc.resolve(cr.Table, cr.Column)
			if err != nil || cti != ti {
				return 0, false
			}
			return ci, true
		}
		try := func(buildSide, probeSide sqlparser.Expr) (joinKey, bool, error) {
			ci, ok := colOf(buildSide)
			if !ok || !exprOverPlaced(sc, probeSide, placed) {
				return joinKey{}, false, nil
			}
			pe, err := rowc.compile(probeSide)
			if err != nil {
				return joinKey{}, false, err
			}
			return joinKey{probe: pe, buildPos: ci}, true, nil
		}
		if k, ok, err := try(b.L, b.R); ok || err != nil {
			return k, ok, err
		}
		return try(b.R, b.L)
	}

	for _, pred := range conjuncts(on) {
		k, ok, err := tryKey(pred)
		if err != nil {
			return nil, nil, err
		}
		if ok {
			keys = append(keys, k)
		} else {
			residual = append(residual, pred)
		}
	}
	if len(residual) > 0 && len(keys) == 0 && on != nil {
		// No usable key in the ON clause: the loop join evaluates the whole
		// clause, in its left-to-right AND order.
		residual = []sqlparser.Expr{on}
	}
	for _, pred := range whereConj {
		k, ok, err := tryKey(pred)
		if err != nil {
			return nil, nil, err
		}
		if ok {
			keys = append(keys, k)
			// The hash join enforces this equality on every emitted pair
			// (by trusted key lookup or per-pair coercing comparison), so
			// the WHERE filter need not re-evaluate it.
			if cp.usedWhere == nil {
				cp.usedWhere = make(map[sqlparser.Expr]bool)
			}
			cp.usedWhere[pred] = true
		}
	}

	var resExpr compiledExpr
	if len(residual) > 0 {
		re, err := rowc.compile(andOf(residual))
		if err != nil {
			return nil, nil, err
		}
		resExpr = re
	}
	return keys, resExpr, nil
}

// andOf joins conjuncts into a left-associated AND tree, nil for none.
func andOf(conj []sqlparser.Expr) sqlparser.Expr {
	var e sqlparser.Expr
	for _, c := range conj {
		if e == nil {
			e = c
		} else {
			e = &sqlparser.BinaryExpr{Op: "AND", L: e, R: c}
		}
	}
	return e
}

// exprOverPlaced reports whether every column reference in e resolves to an
// already-placed table, so the expression can be evaluated against the probe
// stream. Unresolvable references disqualify the expression; compiling the
// residual filter then reports them.
func exprOverPlaced(sc *scope, e sqlparser.Expr, placed []bool) bool {
	switch x := e.(type) {
	case nil:
		return true
	case *sqlparser.IntLit, *sqlparser.StrLit, *sqlparser.BytesLit,
		*sqlparser.NullLit, *sqlparser.BoolLit, *sqlparser.Param:
		return true
	case *sqlparser.ColRef:
		ti, _, err := sc.resolve(x.Table, x.Column)
		return err == nil && placed[ti]
	case *sqlparser.BinaryExpr:
		return exprOverPlaced(sc, x.L, placed) && exprOverPlaced(sc, x.R, placed)
	case *sqlparser.UnaryExpr:
		return exprOverPlaced(sc, x.E, placed)
	case *sqlparser.InExpr:
		if !exprOverPlaced(sc, x.E, placed) {
			return false
		}
		for _, item := range x.List {
			if !exprOverPlaced(sc, item, placed) {
				return false
			}
		}
		return true
	case *sqlparser.LikeExpr:
		return exprOverPlaced(sc, x.E, placed) && exprOverPlaced(sc, x.Pattern, placed)
	case *sqlparser.BetweenExpr:
		return exprOverPlaced(sc, x.E, placed) && exprOverPlaced(sc, x.Lo, placed) && exprOverPlaced(sc, x.Hi, placed)
	case *sqlparser.IsNullExpr:
		return exprOverPlaced(sc, x.E, placed)
	case *sqlparser.FuncCall:
		for _, a := range x.Args {
			if !exprOverPlaced(sc, a, placed) {
				return false
			}
		}
		return true
	}
	return false
}
