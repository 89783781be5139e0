package proxy

import (
	"fmt"
	"strings"

	"repro/internal/crypto/search"
	"repro/internal/onion"
	"repro/internal/sqldb"
	"repro/internal/sqlparser"
)

// qscope resolves logical column references for one query.
type qscope struct {
	entries []qscopeEntry
}

type qscopeEntry struct {
	alias string // effective name: explicit alias or logical table name
	tm    *TableMeta
}

func (p *Proxy) buildScope(from []sqlparser.TableRef) (*qscope, error) {
	qs := &qscope{}
	for _, ref := range from {
		tm, ok := p.tables[ref.Table]
		if !ok {
			return nil, fmt.Errorf("proxy: no table %s", ref.Table)
		}
		alias := ref.Alias
		if alias == "" {
			alias = ref.Table
		}
		qs.entries = append(qs.entries, qscopeEntry{alias: alias, tm: tm})
	}
	return qs, nil
}

// resolve maps a column reference to its metadata and the anonymized table
// alias used in the rewritten query ("a1", "a2", ...).
func (qs *qscope) resolve(table, col string) (*ColumnMeta, string, error) {
	if table != "" {
		for i, e := range qs.entries {
			if e.alias == table || e.tm.Logical == table {
				cm := e.tm.Col(col)
				if cm == nil {
					return nil, "", fmt.Errorf("proxy: no column %s.%s", table, col)
				}
				return cm, anonAlias(i), nil
			}
		}
		return nil, "", fmt.Errorf("proxy: no table %s in scope", table)
	}
	var found *ColumnMeta
	var alias string
	for i, e := range qs.entries {
		if cm := e.tm.Col(col); cm != nil {
			if found != nil {
				return nil, "", fmt.Errorf("proxy: ambiguous column %s", col)
			}
			found = cm
			alias = anonAlias(i)
		}
	}
	if found == nil {
		return nil, "", fmt.Errorf("proxy: no column %s", col)
	}
	return found, alias, nil
}

func anonAlias(i int) string { return fmt.Sprintf("a%d", i+1) }

// requirement is one (column, computation class) pair a query imposes.
type requirement struct {
	cm       *ColumnMeta
	class    onion.Class
	joinWith *ColumnMeta // set for ClassJoin / ClassRangeJoin
	word     string      // set for ClassSearch
}

// analysis is the outcome of examining a statement before rewriting.
type analysis struct {
	reqs        []requirement
	unsupported []string // human-readable reasons (Fig. 9 "needs plaintext")
}

func (a *analysis) addReq(cm *ColumnMeta, class onion.Class) {
	if cm.Plain {
		return
	}
	a.reqs = append(a.reqs, requirement{cm: cm, class: class})
}

func (a *analysis) addJoin(l, r *ColumnMeta, class onion.Class) {
	if l.Plain && r.Plain {
		return
	}
	a.reqs = append(a.reqs, requirement{cm: l, class: class, joinWith: r})
}

func (a *analysis) fail(cm *ColumnMeta, reason string) {
	if cm != nil {
		a.reqs = append(a.reqs, requirement{cm: cm, class: onion.ClassPlaintext})
		reason = fmt.Sprintf("%s.%s: %s", cm.Table.Logical, cm.Logical, reason)
	}
	a.unsupported = append(a.unsupported, reason)
}

// pureCol returns the column metadata when e is exactly a column reference.
func pureCol(e sqlparser.Expr, qs *qscope) (*ColumnMeta, bool) {
	cr, ok := e.(*sqlparser.ColRef)
	if !ok || cr.Column == "*" {
		return nil, false
	}
	cm, _, err := qs.resolve(cr.Table, cr.Column)
	if err != nil {
		return nil, false
	}
	return cm, true
}

// isConstExpr reports whether e evaluates without row context.
func isConstExpr(e sqlparser.Expr, params []sqldb.Value) bool {
	_, err := sqldb.EvalConst(e, params)
	return err == nil
}

// collectCols appends every column referenced anywhere inside e.
func collectCols(e sqlparser.Expr, qs *qscope, out *[]*ColumnMeta) {
	switch x := e.(type) {
	case *sqlparser.ColRef:
		if cm, ok := pureCol(x, qs); ok {
			*out = append(*out, cm)
		}
	case *sqlparser.BinaryExpr:
		collectCols(x.L, qs, out)
		collectCols(x.R, qs, out)
	case *sqlparser.UnaryExpr:
		collectCols(x.E, qs, out)
	case *sqlparser.InExpr:
		collectCols(x.E, qs, out)
		for _, i := range x.List {
			collectCols(i, qs, out)
		}
	case *sqlparser.LikeExpr:
		collectCols(x.E, qs, out)
		collectCols(x.Pattern, qs, out)
	case *sqlparser.BetweenExpr:
		collectCols(x.E, qs, out)
		collectCols(x.Lo, qs, out)
		collectCols(x.Hi, qs, out)
	case *sqlparser.IsNullExpr:
		collectCols(x.E, qs, out)
	case *sqlparser.FuncCall:
		for _, a := range x.Args {
			collectCols(a, qs, out)
		}
	}
}

// analyzePredicate classifies a WHERE/HAVING/ON predicate tree into
// computation-class requirements, flagging anything CryptDB cannot run over
// ciphertext (§6): computation combined with comparison, string/date
// functions in predicates, bitwise operators, LIKE with a column pattern.
func (p *Proxy) analyzePredicate(e sqlparser.Expr, qs *qscope, params []sqldb.Value, an *analysis) {
	if e == nil {
		return
	}
	switch x := e.(type) {
	case *sqlparser.BinaryExpr:
		switch x.Op {
		case "AND", "OR":
			p.analyzePredicate(x.L, qs, params, an)
			p.analyzePredicate(x.R, qs, params, an)
			return
		case "=", "!=", "<", "<=", ">", ">=":
			lc, lIsCol := pureCol(x.L, qs)
			rc, rIsCol := pureCol(x.R, qs)
			lConst := isConstExpr(x.L, params)
			rConst := isConstExpr(x.R, params)
			switch {
			case lIsCol && rIsCol:
				if x.Op == "=" || x.Op == "!=" {
					if lc == rc {
						an.addReq(lc, onion.ClassEquality)
					} else {
						an.addJoin(lc, rc, onion.ClassJoin)
					}
				} else {
					an.addJoin(lc, rc, onion.ClassRangeJoin)
				}
			case lIsCol && rConst:
				p.classifyCmp(lc, x.Op, an)
			case rIsCol && lConst:
				p.classifyCmp(rc, x.Op, an)
			case lConst && rConst:
				// constant predicate; nothing revealed
			default:
				// Computation + comparison on the same column (e.g.
				// WHERE salary > age*2+10): not computable over
				// ciphertext (§6).
				var cols []*ColumnMeta
				collectCols(x, qs, &cols)
				for _, cm := range cols {
					if !cm.Plain {
						an.fail(cm, "computation combined with comparison in WHERE")
					}
				}
				if len(cols) == 0 {
					an.fail(nil, "unsupported predicate "+x.String())
				}
			}
			return
		case "&", "|", "^", "+", "-", "*", "/", "%":
			// A bare arithmetic/bitwise expression used as a predicate
			// (e.g. WHERE perms & 4). Fig. 9's bitwise columns.
			var cols []*ColumnMeta
			collectCols(x, qs, &cols)
			allPlain := true
			for _, cm := range cols {
				if !cm.Plain {
					an.fail(cm, "bitwise/arithmetic predicate over encrypted column")
					allPlain = false
				}
			}
			if len(cols) == 0 || allPlain {
				return
			}
			return
		}
		an.fail(nil, "unsupported operator "+x.Op)
	case *sqlparser.UnaryExpr:
		p.analyzePredicate(x.E, qs, params, an)
	case *sqlparser.InExpr:
		cm, ok := pureCol(x.E, qs)
		if !ok {
			an.fail(nil, "IN over non-column expression")
			return
		}
		for _, item := range x.List {
			if !isConstExpr(item, params) {
				an.fail(cm, "IN list with non-constant item")
				return
			}
		}
		an.addReq(cm, onion.ClassEquality)
	case *sqlparser.LikeExpr:
		cm, ok := pureCol(x.E, qs)
		if !ok {
			an.fail(nil, "LIKE over non-column expression")
			return
		}
		if cm.Plain {
			return
		}
		pat, err := sqldb.EvalConst(x.Pattern, params)
		if err != nil {
			// LIKE with a column reference for the pattern — the 41
			// columns of §8.2.
			an.fail(cm, "LIKE with column pattern")
			return
		}
		word, ok := likeWord(valueToPatternString(pat))
		if !ok {
			an.fail(cm, "unsupported LIKE pattern: not one full-word search keyword")
			return
		}
		if cm.Type != sqlparser.TypeText {
			an.fail(cm, "LIKE on non-text column")
			return
		}
		an.reqs = append(an.reqs, requirement{cm: cm, class: onion.ClassSearch, word: word})
	case *sqlparser.BetweenExpr:
		cm, ok := pureCol(x.E, qs)
		if !ok || !isConstExpr(x.Lo, params) || !isConstExpr(x.Hi, params) {
			var cols []*ColumnMeta
			collectCols(x, qs, &cols)
			for _, c := range cols {
				an.fail(c, "BETWEEN over computed operands")
			}
			return
		}
		an.addReq(cm, onion.ClassOrder)
	case *sqlparser.IsNullExpr:
		// NULLs are visible to the server (§3.3); no requirement.
	case *sqlparser.ColRef:
		cm, ok := pureCol(x, qs)
		if ok && !cm.Plain {
			// WHERE boolcol — truthiness of a ciphertext is meaningless.
			an.fail(cm, "bare column used as predicate")
		}
	case *sqlparser.FuncCall:
		// String/date manipulation inside a predicate (LOWER, MONTH,
		// SUBSTRING, ...): Fig. 9's "needs plaintext" class.
		var cols []*ColumnMeta
		collectCols(x, qs, &cols)
		for _, cm := range cols {
			if !cm.Plain {
				an.fail(cm, "function "+x.Name+" over encrypted column in predicate")
			}
		}
	case *sqlparser.IntLit, *sqlparser.StrLit, *sqlparser.BytesLit,
		*sqlparser.NullLit, *sqlparser.BoolLit, *sqlparser.Param:
		// constant predicate
	default:
		an.fail(nil, fmt.Sprintf("unsupported predicate %T", e))
	}
}

func (p *Proxy) classifyCmp(cm *ColumnMeta, op string, an *analysis) {
	switch op {
	case "=", "!=":
		an.addReq(cm, onion.ClassEquality)
	default:
		an.addReq(cm, onion.ClassOrder)
	}
}

// valueToPatternString renders a constant LIKE pattern.
func valueToPatternString(v sqldb.Value) string {
	if v.Kind == sqldb.KindBlob {
		return string(v.B)
	}
	return v.String()
}

// likeWord extracts the single search word from a LIKE pattern of the form
// %word%, word%, %word or word. The word must be exactly one stored SEARCH
// keyword (search.Keywords: ASCII letters and digits): a pattern spanning
// words ("hello world", "e-mail"), holding other characters ("café") or an
// interior wildcard is not a full-word search (§3.1), and a token for it
// would silently match nothing.
func likeWord(pat string) (string, bool) {
	word := strings.ToLower(strings.Trim(pat, "%"))
	if kw := search.Keywords(word); len(kw) != 1 || kw[0] != word {
		return "", false
	}
	return word, true
}

// analyzeSelect derives all requirements of a SELECT.
func (p *Proxy) analyzeSelect(s *sqlparser.SelectStmt, qs *qscope, params []sqldb.Value) *analysis {
	an := &analysis{}

	// JOIN ... ON predicates.
	for _, ref := range s.From {
		if ref.JoinOn != nil {
			p.analyzePredicate(ref.JoinOn, qs, params, an)
		}
	}
	p.analyzePredicate(s.Where, qs, params, an)

	for _, se := range s.Exprs {
		if se.Star {
			continue
		}
		p.analyzeSelectExpr(se.Expr, qs, params, an)
	}

	for _, g := range s.GroupBy {
		if cm, ok := pureCol(g, qs); ok {
			an.addReq(cm, onion.ClassEquality)
		} else {
			var cols []*ColumnMeta
			collectCols(g, qs, &cols)
			for _, cm := range cols {
				an.fail(cm, "GROUP BY over computed expression")
			}
		}
	}

	if s.Having != nil {
		p.analyzeHaving(s.Having, qs, params, an)
	}

	inProxySort := s.Limit == nil
	for _, o := range s.OrderBy {
		cm, ok := pureCol(o.Expr, qs)
		if !ok {
			// ORDER BY COUNT(*) etc: server-computable aggregates sort
			// server-side; anything else sorts in the proxy.
			if fc, isFC := o.Expr.(*sqlparser.FuncCall); isFC && fc.Name == "COUNT" {
				continue
			}
			if !inProxySort {
				var cols []*ColumnMeta
				collectCols(o.Expr, qs, &cols)
				for _, c := range cols {
					an.fail(c, "ORDER BY expression with LIMIT")
				}
			}
			continue
		}
		if cm.Plain {
			continue
		}
		if inProxySort {
			continue // sorted at the proxy, nothing revealed (§3.5.1)
		}
		an.addReq(cm, onion.ClassOrder)
	}

	return an
}

// analyzeSelectExpr handles one projection item.
func (p *Proxy) analyzeSelectExpr(e sqlparser.Expr, qs *qscope, params []sqldb.Value, an *analysis) {
	switch x := e.(type) {
	case *sqlparser.ColRef:
		// plain projection: nothing revealed
	case *sqlparser.FuncCall:
		switch x.Name {
		case "COUNT":
			if x.Distinct {
				for _, a := range x.Args {
					if cm, ok := pureCol(a, qs); ok {
						an.addReq(cm, onion.ClassEquality)
					}
				}
			}
		case "SUM", "AVG":
			if len(x.Args) == 1 {
				if cm, ok := pureCol(x.Args[0], qs); ok {
					if cm.Plain {
						return
					}
					if cm.Type != sqlparser.TypeInt {
						an.fail(cm, x.Name+" over non-integer column")
						return
					}
					an.addReq(cm, onion.ClassSum)
					return
				}
			}
			var cols []*ColumnMeta
			collectCols(x, qs, &cols)
			for _, cm := range cols {
				an.fail(cm, x.Name+" over computed expression")
			}
		case "MIN", "MAX":
			if len(x.Args) == 1 {
				if cm, ok := pureCol(x.Args[0], qs); ok {
					if cm.Plain {
						return
					}
					if cm.Type != sqlparser.TypeInt {
						an.fail(cm, x.Name+" over non-integer column (OPE not invertible)")
						return
					}
					an.addReq(cm, onion.ClassOrder)
					return
				}
			}
			an.fail(nil, x.Name+" over computed expression")
		default:
			// Unknown scalar function in projection: in-proxy
			// processing cannot help because we cannot even fetch
			// partial results for arbitrary server functions — but for
			// pure projections the proxy can compute the function
			// itself after decryption, so only flag predicates. Here
			// we conservatively support it via in-proxy evaluation if
			// it is one the proxy understands; otherwise report it.
			an.fail(nil, "function "+x.Name+" in projection")
		}
	default:
		// Arithmetic over columns in the projection: computed at the
		// proxy after decryption (in-proxy processing, §3.5.1 / §8.2).
		// No server requirement.
	}
}

// analyzeHaving: COUNT comparisons run server-side; anything over
// SUM/MIN/MAX is post-filtered at the proxy, which only needs the same
// onion access as the corresponding projection.
func (p *Proxy) analyzeHaving(e sqlparser.Expr, qs *qscope, params []sqldb.Value, an *analysis) {
	var aggs []*sqlparser.FuncCall
	collectFuncCalls(e, &aggs)
	for _, fc := range aggs {
		p.analyzeSelectExpr(fc, qs, params, an)
	}
}

func collectFuncCalls(e sqlparser.Expr, out *[]*sqlparser.FuncCall) {
	switch x := e.(type) {
	case *sqlparser.FuncCall:
		*out = append(*out, x)
	case *sqlparser.BinaryExpr:
		collectFuncCalls(x.L, out)
		collectFuncCalls(x.R, out)
	case *sqlparser.UnaryExpr:
		collectFuncCalls(x.E, out)
	}
}

// analyzeUpdate classifies SET clauses: constants re-encrypt, col = col ± k
// uses HOM (§3.3), anything else falls back to the two-query strategy.
type updatePlanKind int

const (
	updConst updatePlanKind = iota
	updIncrement
	updTwoQuery
	updPassthrough // plain column: the server computes directly
)

type updateAssign struct {
	cm    *ColumnMeta
	kind  updatePlanKind
	value sqlparser.Expr // const expr or full expr for two-query
	delta int64          // for updIncrement
}

func (p *Proxy) analyzeUpdate(s *sqlparser.UpdateStmt, qs *qscope, params []sqldb.Value) (*analysis, []updateAssign, error) {
	an := &analysis{}
	p.analyzePredicate(s.Where, qs, params, an)

	var assigns []updateAssign
	for _, a := range s.Assignments {
		cm, _, err := qs.resolve("", a.Column)
		if err != nil {
			return nil, nil, err
		}
		var refCols []*ColumnMeta
		collectCols(a.Value, qs, &refCols)
		allRefsPlain := true
		for _, rc := range refCols {
			if !rc.Plain {
				allRefsPlain = false
			}
		}
		switch {
		case cm.Plain && allRefsPlain:
			assigns = append(assigns, updateAssign{cm: cm, kind: updPassthrough, value: a.Value})
		case isConstExpr(a.Value, params):
			assigns = append(assigns, updateAssign{cm: cm, kind: updConst, value: a.Value})
		case isIncrement(a.Value, a.Column) && !cm.Plain:
			delta, ok := incrementDelta(a.Value, params)
			if !ok {
				assigns = append(assigns, updateAssign{cm: cm, kind: updTwoQuery, value: a.Value})
				break
			}
			if !cm.HasOnion(onion.Add) {
				an.fail(cm, "increment on column without Add onion")
				break
			}
			an.addReq(cm, onion.ClassIncrement)
			assigns = append(assigns, updateAssign{cm: cm, kind: updIncrement, delta: delta})
		default:
			assigns = append(assigns, updateAssign{cm: cm, kind: updTwoQuery, value: a.Value})
		}
	}
	return an, assigns, nil
}

// isIncrement recognizes `col = col + k` / `col = col - k`.
func isIncrement(e sqlparser.Expr, col string) bool {
	b, ok := e.(*sqlparser.BinaryExpr)
	if !ok || (b.Op != "+" && b.Op != "-") {
		return false
	}
	cr, ok := b.L.(*sqlparser.ColRef)
	return ok && cr.Column == col
}

func incrementDelta(e sqlparser.Expr, params []sqldb.Value) (int64, bool) {
	b := e.(*sqlparser.BinaryExpr)
	v, err := sqldb.EvalConst(b.R, params)
	if err != nil {
		return 0, false
	}
	n, err := v.AsInt()
	if err != nil {
		return 0, false
	}
	if b.Op == "-" {
		n = -n
	}
	return n, true
}
