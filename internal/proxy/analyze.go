package proxy

import (
	"cmp"
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
	// refused is why the requirement cannot be met, decided by the build
	// from metadata alone: a MINENC floor, an undeclared OPE-JOIN, a layer
	// that is not RND, or a computation no onion supports. The statement is
	// then refused before its first adjustment (a trainer logs it instead).
	refused error
}

// analysis is what a statement's build (planBuilder) records while it
// rewrites each clause: the requirements the statement imposes, in clause
// order, and the reasons it cannot run over encrypted data.
type analysis struct {
	reqs        []requirement
	unsupported []string // human-readable reasons (Fig. 9 "needs plaintext")
}

func (a *analysis) addReq(cm *ColumnMeta, class onion.Class) {
	if cm.Plain {
		return
	}
	r := requirement{cm: cm, class: class}
	if o, l, ok := class.Requirement(); ok {
		r.refused = lowerRefusal(cm, o, l)
	}
	a.reqs = append(a.reqs, r)
}

func (a *analysis) addJoin(l, r *ColumnMeta, class onion.Class) {
	if l.Plain && r.Plain {
		return
	}
	req := requirement{cm: l, class: class, joinWith: r}
	if class == onion.ClassJoin {
		req.refused = cmp.Or(l.checkMinEnc(onion.JOIN), lowerRefusal(l, onion.JAdj, onion.JOIN),
			r.checkMinEnc(onion.JOIN), lowerRefusal(r, onion.JAdj, onion.JOIN))
	} else {
		if l.opeShared == nil || r.opeShared == nil || string(l.opeShared) != string(r.opeShared) {
			req.refused = fmt.Errorf("proxy: range join between %s.%s and %s.%s requires DeclareOPEJoin before data load (§3.4)",
				l.Table.Logical, l.Logical, r.Table.Logical, r.Logical)
		}
		req.refused = cmp.Or(req.refused, lowerRefusal(l, onion.Ord, onion.OPE), lowerRefusal(r, onion.Ord, onion.OPE))
	}
	a.reqs = append(a.reqs, req)
}

// lowerRefusal is why onion o of cm cannot come down to layer target: the
// schema's MINENC floor (§3.5.1), or a layer above target that is not RND.
// Nil when the onion is there already, or absent (the build refuses that
// when it names the onion's column).
func lowerRefusal(cm *ColumnMeta, o onion.Onion, target onion.Layer) error {
	st := cm.Onions[o]
	if st == nil || st.AtOrBelow(target) {
		return nil
	}
	if err := cm.checkMinEnc(target); err != nil {
		return err
	}
	layers, err := st.LayersAbove(target)
	if err != nil {
		return err
	}
	for _, layer := range layers {
		if layer != onion.RND {
			return fmt.Errorf("proxy: cannot strip non-RND layer %s of %s onion", layer, o)
		}
	}
	return nil
}

func (a *analysis) fail(cm *ColumnMeta, reason string) {
	if cm != nil {
		a.reqs = append(a.reqs, requirement{cm: cm, class: onion.ClassPlaintext,
			refused: fmt.Errorf("proxy: %s.%s requires plaintext computation", cm.Table.Logical, cm.Logical)})
		reason = fmt.Sprintf("%s.%s: %s", cm.Table.Logical, cm.Logical, reason)
	}
	a.unsupported = append(a.unsupported, reason)
}

// refusal is the error that refuses a statement with an unsupported clause,
// naming the first.
func (a *analysis) refusal() error {
	if len(a.unsupported) == 0 {
		return nil
	}
	return fmt.Errorf("proxy: query not executable over encrypted data: %s", a.unsupported[0])
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
		if cm, _, err := qs.resolve(x.Table, x.Column); err == nil {
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

// assignKind is how the proxy computes one SET clause of an UPDATE.
type assignKind int

const (
	updConst assignKind = iota
	updIncrement
	updTwoQuery
	updPassthrough // plain column: the server computes directly
)

type updateAssign struct {
	cm    *ColumnMeta
	kind  assignKind
	value sqlparser.Expr // the assigned expression
	delta int64          // for updIncrement
}

// classifySet classifies an UPDATE's SET clauses: constants re-encrypt,
// col = col ± k uses HOM (§3.3), anything else falls back to the two-query
// strategy.
func (b *planBuilder) classifySet(s *sqlparser.UpdateStmt) ([]updateAssign, error) {
	var assigns []updateAssign
	for _, a := range s.Assignments {
		cm, _, err := b.qs.resolve("", a.Column)
		if err != nil {
			return nil, err
		}
		var refCols []*ColumnMeta
		collectCols(a.Value, b.qs, &refCols)
		allRefsPlain := true
		for _, rc := range refCols {
			if !rc.Plain {
				allRefsPlain = false
			}
		}
		ua := updateAssign{cm: cm, kind: updTwoQuery, value: a.Value}
		switch {
		case cm.Plain && allRefsPlain:
			ua.kind = updPassthrough
		case isConstExpr(a.Value, b.params):
			ua.kind = updConst
		case isIncrement(a.Value, a.Column) && !cm.Plain:
			delta, ok := incrementDelta(a.Value, b.params)
			if !ok {
				break
			}
			if !cm.HasOnion(onion.Add) {
				b.an.fail(cm, "increment on column without Add onion")
				continue
			}
			b.an.addReq(cm, onion.ClassIncrement)
			ua.kind, ua.delta = updIncrement, delta
		}
		assigns = append(assigns, ua)
	}
	return assigns, nil
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
