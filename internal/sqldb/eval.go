package sqldb

import (
	"fmt"
	"strings"

	"repro/internal/sqlparser"
)

// scopeTable binds one FROM table (with alias) into a query scope.
type scopeTable struct {
	alias string // effective name used for qualification
	t     *Table
	// feed, when set, supplies the entry's rows (SelectFeeds); t is then a
	// rowless, unindexed table that only names the columns.
	feed *Feed
	// ws, when set, is the reading transaction's write set for t: the
	// entry's rows are t's as that transaction sees them (see
	// access.iterate).
	ws *txnTable
}

// scope resolves column references for a query over one or more tables.
type scope struct {
	tabs []scopeTable
}

// tuple is one joined row: one []Value per scope table.
type tuple [][]Value

func (s *scope) addTable(alias string, t *Table) {
	if alias == "" {
		alias = t.Name
	}
	s.tabs = append(s.tabs, scopeTable{alias: alias, t: t})
}

// addTxnTable binds t as txn sees it (txn may be nil: committed rows).
func (s *scope) addTxnTable(alias string, t *Table, txn *Txn) {
	s.addTable(alias, t)
	s.tabs[len(s.tabs)-1].ws = txn.writeSet(t)
}

// addFeed binds a FROM entry to supplied rows.
func (s *scope) addFeed(ref sqlparser.TableRef, f *Feed) {
	cols := make([]Column, len(f.Columns))
	for i, name := range f.Columns {
		cols[i] = Column{Name: name}
	}
	s.addTable(ref.Alias, newTable(ref.Table, cols, memPager()))
	s.tabs[len(s.tabs)-1].feed = f
}

// resolve maps a (table, column) reference to (table index, column index).
// An empty table name searches all tables and errs on ambiguity.
func (s *scope) resolve(table, col string) (int, int, error) {
	if table != "" {
		for ti, st := range s.tabs {
			if st.alias == table || st.t.Name == table {
				ci := st.t.ColumnIndex(col)
				if ci < 0 {
					return 0, 0, fmt.Errorf("sqldb: no column %s.%s", table, col)
				}
				return ti, ci, nil
			}
		}
		return 0, 0, fmt.Errorf("sqldb: no table %s in scope", table)
	}
	foundTi, foundCi := -1, -1
	for ti, st := range s.tabs {
		if ci := st.t.ColumnIndex(col); ci >= 0 {
			if foundTi >= 0 {
				return 0, 0, fmt.Errorf("sqldb: ambiguous column %s", col)
			}
			foundTi, foundCi = ti, ci
		}
	}
	if foundTi < 0 {
		return 0, 0, fmt.Errorf("sqldb: no column %s", col)
	}
	return foundTi, foundCi, nil
}

// evalCtx carries everything one-shot expression evaluation needs: writes
// (SET and VALUES expressions, UPDATE/DELETE predicates), the planner's
// constant folding and standalone evaluation walk the AST with it. SELECTs
// do not — they lower their expressions once (compile.go), whose cases
// mirror eval's.
type evalCtx struct {
	db     *DB
	scope  *scope
	tup    tuple
	params []Value
	// lookup, when set, resolves column references instead of scope/tup
	// (standalone evaluation — see EvalExpr).
	lookup func(table, col string) (Value, error)
}

func (c *evalCtx) eval(e sqlparser.Expr) (Value, error) {
	switch x := e.(type) {
	case *sqlparser.IntLit:
		return Int(x.V), nil
	case *sqlparser.StrLit:
		return Text(x.V), nil
	case *sqlparser.BytesLit:
		return Blob(x.V), nil
	case *sqlparser.NullLit:
		return Null(), nil
	case *sqlparser.BoolLit:
		return Bool(x.V), nil
	case *sqlparser.Param:
		if x.Index >= len(c.params) {
			return Value{}, fmt.Errorf("sqldb: missing parameter %d", x.Index+1)
		}
		return c.params[x.Index], nil
	case *sqlparser.ColRef:
		if c.lookup != nil {
			return c.lookup(x.Table, x.Column)
		}
		ti, ci, err := c.scope.resolve(x.Table, x.Column)
		if err != nil {
			return Value{}, err
		}
		if c.tup == nil || c.tup[ti] == nil {
			return Null(), nil
		}
		return c.tup[ti][ci], nil
	case *sqlparser.BinaryExpr:
		return c.evalBinary(x)
	case *sqlparser.UnaryExpr:
		v, err := c.eval(x.E)
		if err != nil {
			return Value{}, err
		}
		switch x.Op {
		case "NOT":
			if v.IsNull() {
				return Null(), nil
			}
			return Bool(!v.Truthy()), nil
		case "-":
			n, err := v.AsInt()
			if err != nil {
				return Value{}, err
			}
			return Int(-n), nil
		}
		return Value{}, fmt.Errorf("sqldb: unknown unary operator %q", x.Op)
	case *sqlparser.InExpr:
		v, err := c.eval(x.E)
		if err != nil {
			return Value{}, err
		}
		if v.IsNull() {
			return Bool(x.Not), nil
		}
		for _, item := range x.List {
			iv, err := c.eval(item)
			if err != nil {
				return Value{}, err
			}
			if v.Equal(iv) {
				return Bool(!x.Not), nil
			}
		}
		return Bool(x.Not), nil
	case *sqlparser.LikeExpr:
		v, err := c.eval(x.E)
		if err != nil {
			return Value{}, err
		}
		p, err := c.eval(x.Pattern)
		if err != nil {
			return Value{}, err
		}
		if v.IsNull() || p.IsNull() {
			return Bool(false), nil
		}
		matched := likeMatch(valueText(v), valueText(p))
		return Bool(matched != x.Not), nil
	case *sqlparser.BetweenExpr:
		v, err := c.eval(x.E)
		if err != nil {
			return Value{}, err
		}
		lo, err := c.eval(x.Lo)
		if err != nil {
			return Value{}, err
		}
		hi, err := c.eval(x.Hi)
		if err != nil {
			return Value{}, err
		}
		if v.IsNull() || lo.IsNull() || hi.IsNull() {
			return Bool(false), nil
		}
		cl, err := v.Compare(lo)
		if err != nil {
			return Value{}, err
		}
		ch, err := v.Compare(hi)
		if err != nil {
			return Value{}, err
		}
		in := cl >= 0 && ch <= 0
		return Bool(in != x.Not), nil
	case *sqlparser.IsNullExpr:
		v, err := c.eval(x.E)
		if err != nil {
			return Value{}, err
		}
		return Bool(v.IsNull() != x.Not), nil
	case *sqlparser.FuncCall:
		if isBuiltinAgg(x.Name) {
			return Value{}, fmt.Errorf("sqldb: aggregate %s in a non-aggregate context", x.Name)
		}
		if c.db == nil {
			return Value{}, fmt.Errorf("sqldb: no function %s in standalone evaluation", x.Name)
		}
		// Exec holds db.mu (read or write) for the whole statement, and
		// RegisterUDF takes the write lock, so reading the registries
		// here without additional locking is race-free.
		_, isAgg := c.db.aggUDFs[x.Name]
		fn, ok := c.db.udfs[x.Name]
		if isAgg && !ok {
			return Value{}, fmt.Errorf("sqldb: aggregate UDF %s in a non-aggregate context", x.Name)
		}
		if !ok {
			return Value{}, fmt.Errorf("sqldb: unknown function %s", x.Name)
		}
		args := make([]Value, len(x.Args))
		for i, a := range x.Args {
			v, err := c.eval(a)
			if err != nil {
				return Value{}, err
			}
			args[i] = v
		}
		return fn(args)
	}
	return Value{}, fmt.Errorf("sqldb: cannot evaluate %T", e)
}

func valueText(v Value) string {
	if v.Kind == KindBlob {
		return string(v.B)
	}
	return v.String()
}

func (c *evalCtx) evalBinary(x *sqlparser.BinaryExpr) (Value, error) {
	switch x.Op {
	case "AND":
		l, err := c.eval(x.L)
		if err != nil {
			return Value{}, err
		}
		if !l.IsNull() && !l.Truthy() {
			return Bool(false), nil
		}
		r, err := c.eval(x.R)
		if err != nil {
			return Value{}, err
		}
		return Bool(l.Truthy() && r.Truthy()), nil
	case "OR":
		l, err := c.eval(x.L)
		if err != nil {
			return Value{}, err
		}
		if l.Truthy() {
			return Bool(true), nil
		}
		r, err := c.eval(x.R)
		if err != nil {
			return Value{}, err
		}
		return Bool(r.Truthy()), nil
	}

	l, err := c.eval(x.L)
	if err != nil {
		return Value{}, err
	}
	r, err := c.eval(x.R)
	if err != nil {
		return Value{}, err
	}

	switch x.Op {
	case "=", "!=", "<", "<=", ">", ">=":
		if l.IsNull() || r.IsNull() {
			return Bool(false), nil
		}
		cmp, err := l.Compare(r)
		if err != nil {
			return Value{}, err
		}
		var out bool
		switch x.Op {
		case "=":
			out = cmp == 0
		case "!=":
			out = cmp != 0
		case "<":
			out = cmp < 0
		case "<=":
			out = cmp <= 0
		case ">":
			out = cmp > 0
		case ">=":
			out = cmp >= 0
		}
		return Bool(out), nil
	case "||":
		if l.IsNull() || r.IsNull() {
			return Null(), nil
		}
		return Text(valueText(l) + valueText(r)), nil
	case "+", "-", "*", "/", "%", "&", "|", "^":
		if l.IsNull() || r.IsNull() {
			return Null(), nil
		}
		a, err := l.AsInt()
		if err != nil {
			return Value{}, err
		}
		b, err := r.AsInt()
		if err != nil {
			return Value{}, err
		}
		switch x.Op {
		case "+":
			return Int(a + b), nil
		case "-":
			return Int(a - b), nil
		case "*":
			return Int(a * b), nil
		case "/":
			if b == 0 {
				return Null(), nil
			}
			return Int(a / b), nil
		case "%":
			if b == 0 {
				return Null(), nil
			}
			return Int(a % b), nil
		case "&":
			return Int(a & b), nil
		case "|":
			return Int(a | b), nil
		case "^":
			return Int(a ^ b), nil
		}
	}
	return Value{}, fmt.Errorf("sqldb: unknown operator %q", x.Op)
}

func isBuiltinAgg(name string) bool {
	switch strings.ToUpper(name) {
	case "COUNT", "SUM", "MIN", "MAX", "AVG":
		return true
	}
	return false
}

// collectAggCalls walks an expression and appends every aggregate call
// (builtin or registered aggregate UDF) found.
func collectAggCalls(db *DB, e sqlparser.Expr, out *[]*sqlparser.FuncCall) {
	switch x := e.(type) {
	case *sqlparser.FuncCall:
		if isBuiltinAgg(x.Name) {
			*out = append(*out, x)
			return
		}
		// Called under db.mu held by Exec; see evalCtx.eval.
		_, isAgg := db.aggUDFs[x.Name]
		if isAgg {
			*out = append(*out, x)
			return
		}
		for _, a := range x.Args {
			collectAggCalls(db, a, out)
		}
	case *sqlparser.BinaryExpr:
		collectAggCalls(db, x.L, out)
		collectAggCalls(db, x.R, out)
	case *sqlparser.UnaryExpr:
		collectAggCalls(db, x.E, out)
	case *sqlparser.InExpr:
		collectAggCalls(db, x.E, out)
		for _, i := range x.List {
			collectAggCalls(db, i, out)
		}
	case *sqlparser.LikeExpr:
		collectAggCalls(db, x.E, out)
		collectAggCalls(db, x.Pattern, out)
	case *sqlparser.BetweenExpr:
		collectAggCalls(db, x.E, out)
		collectAggCalls(db, x.Lo, out)
		collectAggCalls(db, x.Hi, out)
	case *sqlparser.IsNullExpr:
		collectAggCalls(db, x.E, out)
	}
}
