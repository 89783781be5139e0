package proxy

import (
	"errors"
	"fmt"

	"repro/internal/onion"
	"repro/internal/sqldb"
	"repro/internal/sqlparser"
)

// decoder turns one server result row into one logical output value.
type decoder func(row []sqldb.Value) (sqldb.Value, error)

// refusedDec stands in for the decoder of a clause the build refused: a
// statement with an unsupported clause never runs, so it is never called.
func refusedDec([]sqldb.Value) (sqldb.Value, error) {
	return sqldb.Value{}, errors.New("proxy: decoding a refused clause")
}

// selectPlan describes how to post-process and decrypt a server result.
type selectPlan struct {
	names     []string
	decs      []decoder
	sortKeys  []sortKeyPlan
	havingDec decoder
	limit     *int64
	offset    *int64
}

type sortKeyPlan struct {
	dec  decoder
	desc bool
}

// planBuilder is the one walk over a statement (§3.2). It emits the server
// form of each clause and, where it picks the onion column that serves the
// clause, records in its analysis the requirement that onion must meet. A
// clause CryptDB cannot run over ciphertext records an unsupported reason
// instead of failing, so the walk sees the whole statement and its
// requirements come out in clause order. The server select list it
// accumulates is referenced by index from the decoders it hands out.
type planBuilder struct {
	p      *Proxy
	qs     *qscope
	params []sqldb.Value
	an     analysis
	srv    []sqlparser.SelectExpr
	cache  map[string]decoder // logical "alias.col" -> fetch decoder
}

func newPlanBuilder(p *Proxy, qs *qscope, params []sqldb.Value) *planBuilder {
	return &planBuilder{p: p, qs: qs, params: params}
}

func (b *planBuilder) addServer(e sqlparser.Expr) int {
	b.srv = append(b.srv, sqlparser.SelectExpr{Expr: e})
	return len(b.srv) - 1
}

// colRef builds a server column reference, qualified with the anon alias
// when the query has a FROM clause.
func (b *planBuilder) colRef(alias, col string) sqlparser.Expr {
	return &sqlparser.ColRef{Table: alias, Column: col}
}

// column resolves e when it is exactly a column reference, with the alias
// the server statement qualifies it by ("" without useAlias).
func (b *planBuilder) column(e sqlparser.Expr, useAlias bool) (cm *ColumnMeta, alias string, ok bool, err error) {
	cr, isRef := e.(*sqlparser.ColRef)
	if !isRef || cr.Column == "*" {
		return nil, "", false, nil
	}
	cm, alias, err = b.qs.resolve(cr.Table, cr.Column)
	if err != nil {
		return nil, "", false, err
	}
	if !useAlias {
		alias = ""
	}
	return cm, alias, true, nil
}

// classOnion is the onion that serves each computation class.
var classOnion = map[onion.Class]onion.Onion{
	onion.ClassEquality:  onion.Eq,
	onion.ClassJoin:      onion.JAdj,
	onion.ClassOrder:     onion.Ord,
	onion.ClassRangeJoin: onion.Ord,
	onion.ClassSum:       onion.Add,
	onion.ClassSearch:    onion.Search,
}

// need records that the statement computes class over cm and names the
// server column that serves it: the onion's column, or the plain column. A
// plan may have discarded the onion, and the statement is then refused here,
// before any requirement is applied.
func (b *planBuilder) need(cm *ColumnMeta, alias string, class onion.Class) (sqlparser.Expr, error) {
	b.an.addReq(cm, class)
	return onionRef(cm, alias, classOnion[class])
}

func onionRef(cm *ColumnMeta, alias string, o onion.Onion) (sqlparser.Expr, error) {
	if cm.Plain {
		return &sqlparser.ColRef{Table: alias, Column: cm.Anon}, nil
	}
	if !cm.HasOnion(o) {
		return nil, fmt.Errorf("proxy: %s.%s has no %s onion", cm.Table.Logical, cm.Logical, o)
	}
	return &sqlparser.ColRef{Table: alias, Column: cm.onionCol(o)}, nil
}

// failCols records reason against every column e references, or against
// the statement when it references none.
func (b *planBuilder) failCols(e sqlparser.Expr, reason string) {
	var cols []*ColumnMeta
	collectCols(e, b.qs, &cols)
	for _, cm := range cols {
		b.an.fail(cm, reason)
	}
	if len(cols) == 0 {
		b.an.fail(nil, reason)
	}
}

// fetchCol returns a decoder producing the plaintext of one logical column.
// Projection reveals nothing, so it records no requirement; what it fetches
// depends on the layer (the IV only while Eq is at RND).
func (b *planBuilder) fetchCol(cm *ColumnMeta, alias string) (decoder, error) {
	key := alias + "\x00" + cm.Logical
	if dec, ok := b.cache[key]; ok {
		return dec, nil
	}
	var dec decoder
	switch {
	case cm.Plain:
		si := b.addServer(b.colRef(alias, cm.Anon))
		dec = func(row []sqldb.Value) (sqldb.Value, error) { return row[si], nil }

	case cm.EncFor != nil:
		if b.p.princ == nil {
			return nil, fmt.Errorf("proxy: column %s.%s is ENC FOR a principal; enable multi-principal mode",
				cm.Table.Logical, cm.Logical)
		}
		owner := cm.Table.Col(cm.EncFor.OwnerColumn)
		ownerDec, err := b.fetchCol(owner, alias)
		if err != nil {
			return nil, err
		}
		si := b.addServer(b.colRef(alias, cm.mpCol()))
		ptype := cm.EncFor.PrincType
		table, col := cm.Table.Logical, cm.Logical
		dec = func(row []sqldb.Value) (sqldb.Value, error) {
			ov, err := ownerDec(row)
			if err != nil {
				return sqldb.Value{}, err
			}
			return b.p.princ.DecryptFor(ptype, ov.String(), table, col, row[si])
		}

	case cm.Stale[onion.Eq]:
		// Increment bypassed the other onions: read the up-to-date
		// HOM value (§3.3 "projected after increment").
		si := b.addServer(b.colRef(alias, cm.onionCol(onion.Add)))
		dec = func(row []sqldb.Value) (sqldb.Value, error) {
			return b.p.decryptAdd(cm, row[si])
		}

	default:
		si := b.addServer(b.colRef(alias, cm.onionCol(onion.Eq)))
		atRND := cm.Onions[onion.Eq].Current() == onion.RND
		ivIdx := -1
		if atRND {
			ivIdx = b.addServer(b.colRef(alias, cm.ivCol()))
		}
		dec = func(row []sqldb.Value) (sqldb.Value, error) {
			iv := sqldb.Null()
			if ivIdx >= 0 {
				iv = row[ivIdx]
			}
			return b.p.decryptEq(cm, row[si], iv, atRND)
		}
	}
	if b.cache == nil {
		b.cache = map[string]decoder{}
	}
	b.cache[key] = dec
	return dec, nil
}

// aggDecoder plans one aggregate call server-side and returns its decoder.
func (b *planBuilder) aggDecoder(fc *sqlparser.FuncCall) (decoder, error) {
	if fc.Star {
		si := b.addServer(&sqlparser.FuncCall{Name: "COUNT", Star: true})
		return func(row []sqldb.Value) (sqldb.Value, error) { return row[si], nil }, nil
	}
	if len(fc.Args) != 1 {
		return nil, fmt.Errorf("proxy: %s takes one argument", fc.Name)
	}
	cm, alias, isCol, err := b.column(fc.Args[0], true)
	if err != nil {
		return nil, err
	}
	if !isCol {
		b.failCols(fc, fc.Name+" over computed expression")
		return refusedDec, nil
	}

	var arg sqlparser.Expr
	switch {
	case fc.Name == "COUNT":
		// COUNT(c) counts non-NULL values, which the server sees at any
		// layer; COUNT(DISTINCT c) compares them, which needs DET.
		if fc.Distinct {
			b.an.addReq(cm, onion.ClassEquality)
		}
		if arg, err = onionRef(cm, alias, onion.Eq); err != nil {
			return nil, err
		}
		si := b.addServer(&sqlparser.FuncCall{Name: "COUNT", Distinct: fc.Distinct, Args: []sqlparser.Expr{arg}})
		return func(row []sqldb.Value) (sqldb.Value, error) { return row[si], nil }, nil
	case cm.Plain:
		si := b.addServer(&sqlparser.FuncCall{Name: fc.Name,
			Args: []sqlparser.Expr{b.colRef(alias, cm.Anon)}})
		return func(row []sqldb.Value) (sqldb.Value, error) { return row[si], nil }, nil
	case cm.Type != sqlparser.TypeInt:
		if fc.Name == "MIN" || fc.Name == "MAX" {
			b.an.fail(cm, fc.Name+" over non-integer column (OPE not invertible)")
		} else {
			b.an.fail(cm, fc.Name+" over non-integer column")
		}
		return refusedDec, nil
	}

	switch fc.Name {
	case "SUM":
		if arg, err = b.need(cm, alias, onion.ClassSum); err != nil {
			return nil, err
		}
		si := b.addServer(&sqlparser.FuncCall{Name: "hom_sum", Args: []sqlparser.Expr{arg}})
		return func(row []sqldb.Value) (sqldb.Value, error) {
			return b.p.decryptAdd(cm, row[si])
		}, nil
	case "AVG":
		// AVG = decrypted SUM over COUNT, both computed server-side
		// (§3.1: "HOM can also be used for computing averages by
		// having the DBMS server return the sum and the count
		// separately").
		if arg, err = b.need(cm, alias, onion.ClassSum); err != nil {
			return nil, err
		}
		sumIdx := b.addServer(&sqlparser.FuncCall{Name: "hom_sum", Args: []sqlparser.Expr{arg}})
		cntIdx := b.addServer(&sqlparser.FuncCall{Name: "COUNT", Args: []sqlparser.Expr{arg}})
		return func(row []sqldb.Value) (sqldb.Value, error) {
			sum, err := b.p.decryptAdd(cm, row[sumIdx])
			if err != nil {
				return sqldb.Value{}, err
			}
			if sum.IsNull() || row[cntIdx].I == 0 {
				return sqldb.Null(), nil
			}
			return sqldb.Int(sum.I / row[cntIdx].I), nil
		}, nil
	default: // MIN, MAX
		if arg, err = b.need(cm, alias, onion.ClassOrder); err != nil {
			return nil, err
		}
		si := b.addServer(&sqlparser.FuncCall{Name: fc.Name, Args: []sqlparser.Expr{arg}})
		return func(row []sqldb.Value) (sqldb.Value, error) {
			return b.p.decryptOrd(cm, row[si])
		}, nil
	}
}

// exprDecoder plans an arbitrary logical expression: columns are fetched
// and decrypted, aggregates computed server-side, and the surrounding
// arithmetic evaluated at the proxy (in-proxy processing, §3.5.1).
func (b *planBuilder) exprDecoder(e sqlparser.Expr) (decoder, error) {
	// Fast path: a bare column.
	cm, alias, isCol, err := b.column(e, true)
	if err != nil {
		return nil, err
	}
	if isCol {
		return b.fetchCol(cm, alias)
	}
	if fc, ok := e.(*sqlparser.FuncCall); ok && isAggName(fc.Name) {
		return b.aggDecoder(fc)
	}

	// General case: substitute placeholders for columns and aggregates,
	// then evaluate the residue with EvalExpr per row.
	subs := map[string]decoder{}
	replaced, err := b.substitute(e, subs)
	if err != nil {
		return nil, err
	}
	params := b.params
	return func(row []sqldb.Value) (sqldb.Value, error) {
		return sqldb.EvalExpr(replaced, func(table, col string) (sqldb.Value, error) {
			dec, ok := subs[table+"\x00"+col]
			if !ok {
				return sqldb.Value{}, fmt.Errorf("proxy: unresolved placeholder %s.%s", table, col)
			}
			return dec(row)
		}, params)
	}, nil
}

func isAggName(name string) bool {
	switch name {
	case "COUNT", "SUM", "MIN", "MAX", "AVG":
		return true
	}
	return false
}

// substitute rewrites e, replacing column references and aggregate calls
// with placeholder refs resolved through subs.
func (b *planBuilder) substitute(e sqlparser.Expr, subs map[string]decoder) (sqlparser.Expr, error) {
	mkPlaceholder := func(dec decoder) sqlparser.Expr {
		name := fmt.Sprintf("v%d", len(subs))
		subs["__px\x00"+name] = dec
		return &sqlparser.ColRef{Table: "__px", Column: name}
	}
	switch x := e.(type) {
	case *sqlparser.ColRef:
		cm, alias, err := b.qs.resolve(x.Table, x.Column)
		if err != nil {
			return nil, err
		}
		dec, err := b.fetchCol(cm, alias)
		if err != nil {
			return nil, err
		}
		return mkPlaceholder(dec), nil
	case *sqlparser.FuncCall:
		if isAggName(x.Name) {
			dec, err := b.aggDecoder(x)
			if err != nil {
				return nil, err
			}
			return mkPlaceholder(dec), nil
		}
		b.an.fail(nil, "function "+x.Name+" not computable")
		return e, nil
	case *sqlparser.BinaryExpr:
		l, err := b.substitute(x.L, subs)
		if err != nil {
			return nil, err
		}
		r, err := b.substitute(x.R, subs)
		if err != nil {
			return nil, err
		}
		return &sqlparser.BinaryExpr{Op: x.Op, L: l, R: r}, nil
	case *sqlparser.UnaryExpr:
		in, err := b.substitute(x.E, subs)
		if err != nil {
			return nil, err
		}
		return &sqlparser.UnaryExpr{Op: x.Op, E: in}, nil
	case *sqlparser.IsNullExpr:
		in, err := b.substitute(x.E, subs)
		if err != nil {
			return nil, err
		}
		return &sqlparser.IsNullExpr{E: in, Not: x.Not}, nil
	case *sqlparser.IntLit, *sqlparser.StrLit, *sqlparser.BytesLit,
		*sqlparser.NullLit, *sqlparser.BoolLit, *sqlparser.Param:
		return e, nil
	}
	b.an.fail(nil, fmt.Sprintf("cannot post-process %T", e))
	return e, nil
}

//
// Predicate rewriting.
//

// rewritePredicate transforms a logical WHERE/HAVING/ON predicate into its
// server-side form: onion column references and encrypted constants
// (§3.3). Each comparison records the onion it reads. Anything CryptDB
// cannot run over ciphertext (§6) — computation combined with comparison,
// functions and bitwise operators over encrypted columns, LIKE with a
// column pattern — is recorded as unsupported.
func (b *planBuilder) rewritePredicate(e sqlparser.Expr, useAlias bool) (sqlparser.Expr, error) {
	if e == nil {
		return nil, nil
	}
	an := &b.an
	switch x := e.(type) {
	case *sqlparser.BinaryExpr:
		switch x.Op {
		case "AND", "OR":
			l, err := b.rewritePredicate(x.L, useAlias)
			if err != nil {
				return nil, err
			}
			r, err := b.rewritePredicate(x.R, useAlias)
			if err != nil {
				return nil, err
			}
			return &sqlparser.BinaryExpr{Op: x.Op, L: l, R: r}, nil
		case "=", "!=", "<", "<=", ">", ">=":
			return b.rewriteCmp(x, useAlias)
		case "&", "|", "^", "+", "-", "*", "/", "%":
			// A bare arithmetic/bitwise expression used as a predicate
			// (e.g. WHERE perms & 4). Fig. 9's bitwise columns.
			return b.renamePlain(e, useAlias, "bitwise/arithmetic predicate over encrypted column")
		}
		an.fail(nil, "unsupported operator "+x.Op)
		return e, nil

	case *sqlparser.UnaryExpr:
		in, err := b.rewritePredicate(x.E, useAlias)
		if err != nil {
			return nil, err
		}
		return &sqlparser.UnaryExpr{Op: x.Op, E: in}, nil

	case *sqlparser.InExpr:
		cm, alias, ok, err := b.column(x.E, useAlias)
		if err != nil {
			return nil, err
		}
		if !ok {
			an.fail(nil, "IN over non-column expression")
			return e, nil
		}
		vals := make([]sqldb.Value, len(x.List))
		for i, item := range x.List {
			if vals[i], err = sqldb.EvalConst(item, b.params); err != nil {
				an.fail(cm, "IN list with non-constant item")
				return e, nil
			}
		}
		col, err := b.need(cm, alias, onion.ClassEquality)
		if err != nil {
			return nil, err
		}
		out := &sqlparser.InExpr{E: col, Not: x.Not}
		for _, v := range vals {
			if !cm.Plain {
				if v, err = b.p.encryptConstEq(cm, v); err != nil {
					return nil, err
				}
			}
			out.List = append(out.List, valueToExpr(v))
		}
		return out, nil

	case *sqlparser.LikeExpr:
		cm, alias, ok, err := b.column(x.E, useAlias)
		if err != nil {
			return nil, err
		}
		if !ok {
			an.fail(nil, "LIKE over non-column expression")
			return e, nil
		}
		if cm.Plain {
			return b.renamePlain(e, useAlias, "LIKE with column pattern")
		}
		pat, err := sqldb.EvalConst(x.Pattern, b.params)
		if err != nil {
			// LIKE with a column reference for the pattern — the 41
			// columns of §8.2.
			an.fail(cm, "LIKE with column pattern")
			return e, nil
		}
		word, ok := likeWord(valueToPatternString(pat))
		if !ok {
			an.fail(cm, "unsupported LIKE pattern: not one full-word search keyword")
			return e, nil
		}
		if cm.Type != sqlparser.TypeText {
			an.fail(cm, "LIKE on non-text column")
			return e, nil
		}
		col, err := b.need(cm, alias, onion.ClassSearch)
		if err != nil {
			return nil, err
		}
		token := b.p.searchCipher(cm).TokenFor(word)
		call := &sqlparser.FuncCall{Name: "searchswp", Args: []sqlparser.Expr{col, &sqlparser.BytesLit{V: token}}}
		if x.Not {
			return &sqlparser.UnaryExpr{Op: "NOT", E: call}, nil
		}
		return call, nil

	case *sqlparser.BetweenExpr:
		cm, alias, ok, err := b.column(x.E, useAlias)
		if err != nil {
			return nil, err
		}
		lo, loErr := sqldb.EvalConst(x.Lo, b.params)
		hi, hiErr := sqldb.EvalConst(x.Hi, b.params)
		if !ok || loErr != nil || hiErr != nil {
			b.failCols(x, "BETWEEN over computed operands")
			return e, nil
		}
		col, err := b.need(cm, alias, onion.ClassOrder)
		if err != nil {
			return nil, err
		}
		if !cm.Plain {
			if lo, err = b.p.encryptConstOrd(cm, lo); err != nil {
				return nil, err
			}
			if hi, err = b.p.encryptConstOrd(cm, hi); err != nil {
				return nil, err
			}
		}
		return &sqlparser.BetweenExpr{E: col, Lo: valueToExpr(lo), Hi: valueToExpr(hi), Not: x.Not}, nil

	case *sqlparser.IsNullExpr:
		// NULLs are visible to the server (§3.3); no requirement.
		cm, alias, ok, err := b.column(x.E, useAlias)
		if err != nil {
			return nil, err
		}
		if !ok {
			return b.renamePlain(e, useAlias, "IS NULL over computed expression")
		}
		var col sqlparser.Expr
		if cm.EncFor != nil {
			col = &sqlparser.ColRef{Table: alias, Column: cm.mpCol()}
		} else if col, err = onionRef(cm, alias, onion.Eq); err != nil {
			return nil, err
		}
		return &sqlparser.IsNullExpr{E: col, Not: x.Not}, nil

	case *sqlparser.ColRef:
		// WHERE boolcol — truthiness of a ciphertext is meaningless.
		return b.renamePlain(e, useAlias, "bare column used as predicate")

	case *sqlparser.FuncCall:
		// String/date manipulation inside a predicate (LOWER, MONTH,
		// SUBSTRING, ...): Fig. 9's "needs plaintext" class.
		return b.renamePlain(e, useAlias, "function "+x.Name+" over encrypted column in predicate")

	case *sqlparser.IntLit, *sqlparser.StrLit, *sqlparser.BytesLit,
		*sqlparser.NullLit, *sqlparser.BoolLit, *sqlparser.Param:
		return b.renamePlain(e, useAlias, "")
	}
	an.fail(nil, fmt.Sprintf("unsupported predicate %T", e))
	return e, nil
}

// rewriteCmp rewrites one comparison.
func (b *planBuilder) rewriteCmp(x *sqlparser.BinaryExpr, useAlias bool) (sqlparser.Expr, error) {
	lc, lAlias, lIsCol, err := b.column(x.L, useAlias)
	if err != nil {
		return nil, err
	}
	rc, rAlias, rIsCol, err := b.column(x.R, useAlias)
	if err != nil {
		return nil, err
	}
	switch {
	case lIsCol && rIsCol:
		return b.rewriteColCol(x.Op, lc, lAlias, rc, rAlias)
	case lIsCol && isConstExpr(x.R, b.params):
		return b.rewriteColConst(lc, lAlias, x.Op, x.R, false)
	case rIsCol && isConstExpr(x.L, b.params):
		return b.rewriteColConst(rc, rAlias, x.Op, x.L, true)
	}
	// A constant comparison, or computation combined with comparison (e.g.
	// WHERE salary > age*2+10): the server computes it over plain columns
	// only (§6).
	return b.renamePlain(x, useAlias, "computation combined with comparison in WHERE")
}

// rewriteColCol compares two columns: on the Eq onion for a column against
// itself, on JAdj for an equi-join, on Ord for a range join (§3.4).
func (b *planBuilder) rewriteColCol(op string, lc *ColumnMeta, lAlias string, rc *ColumnMeta, rAlias string) (sqlparser.Expr, error) {
	if lc.Plain != rc.Plain {
		enc, plain := lc, rc
		if lc.Plain {
			enc, plain = rc, lc
		}
		b.an.fail(enc, fmt.Sprintf("comparison with plain column %s.%s", plain.Table.Logical, plain.Logical))
		return &sqlparser.BoolLit{}, nil
	}
	var class onion.Class
	switch {
	case (op == "=" || op == "!=") && lc == rc:
		b.an.addReq(lc, onion.ClassEquality)
		class = onion.ClassEquality
	case op == "=" || op == "!=":
		class = onion.ClassJoin
		b.an.addJoin(lc, rc, class)
	default:
		class = onion.ClassRangeJoin
		b.an.addJoin(lc, rc, class)
	}
	l, err := onionRef(lc, lAlias, classOnion[class])
	if err != nil {
		return nil, err
	}
	r, err := onionRef(rc, rAlias, classOnion[class])
	if err != nil {
		return nil, err
	}
	return &sqlparser.BinaryExpr{Op: op, L: l, R: r}, nil
}

// rewriteColConst encrypts the constant side of a comparison under the
// column's appropriate onion. flipped means the constant was on the left.
func (b *planBuilder) rewriteColConst(cm *ColumnMeta, alias, op string, constE sqlparser.Expr, flipped bool) (sqlparser.Expr, error) {
	v, err := sqldb.EvalConst(constE, b.params)
	if err != nil {
		return nil, err
	}
	class, encrypt := onion.ClassOrder, b.p.encryptConstOrd
	if op == "=" || op == "!=" {
		class, encrypt = onion.ClassEquality, b.p.encryptConstEq
	}
	colE, err := b.need(cm, alias, class)
	if err != nil {
		return nil, err
	}
	if !cm.Plain {
		if v, err = encrypt(cm, v); err != nil {
			return nil, err
		}
	}
	l, r := colE, valueToExpr(v)
	if flipped {
		// `const < col` must stay flipped to preserve semantics.
		l, r = r, l
	}
	return &sqlparser.BinaryExpr{Op: op, L: l, R: r}, nil
}

// renamePlain rewrites an expression the server computes as written,
// renaming column references to their anonymized server names and binding
// parameters. Over an encrypted column the server cannot compute it: each
// such column is recorded as unsupported with reason. The server has no
// scalar functions, so a function over plain columns is unsupported too.
func (b *planBuilder) renamePlain(e sqlparser.Expr, useAlias bool, reason string) (sqlparser.Expr, error) {
	rename := func(e sqlparser.Expr) (sqlparser.Expr, error) { return b.renamePlain(e, useAlias, reason) }
	switch x := e.(type) {
	case *sqlparser.ColRef:
		cm, alias, err := b.qs.resolve(x.Table, x.Column)
		if err != nil {
			return nil, err
		}
		if !cm.Plain {
			b.an.fail(cm, reason)
			return e, nil
		}
		if !useAlias {
			alias = ""
		}
		return &sqlparser.ColRef{Table: alias, Column: cm.Anon}, nil
	case *sqlparser.BinaryExpr:
		l, err := rename(x.L)
		if err != nil {
			return nil, err
		}
		r, err := rename(x.R)
		if err != nil {
			return nil, err
		}
		return &sqlparser.BinaryExpr{Op: x.Op, L: l, R: r}, nil
	case *sqlparser.UnaryExpr:
		in, err := rename(x.E)
		if err != nil {
			return nil, err
		}
		return &sqlparser.UnaryExpr{Op: x.Op, E: in}, nil
	case *sqlparser.InExpr:
		in, err := rename(x.E)
		if err != nil {
			return nil, err
		}
		out := &sqlparser.InExpr{E: in, Not: x.Not}
		for _, item := range x.List {
			ri, err := rename(item)
			if err != nil {
				return nil, err
			}
			out.List = append(out.List, ri)
		}
		return out, nil
	case *sqlparser.LikeExpr:
		in, err := rename(x.E)
		if err != nil {
			return nil, err
		}
		pat, err := rename(x.Pattern)
		if err != nil {
			return nil, err
		}
		return &sqlparser.LikeExpr{E: in, Pattern: pat, Not: x.Not}, nil
	case *sqlparser.BetweenExpr:
		in, err := rename(x.E)
		if err != nil {
			return nil, err
		}
		lo, err := rename(x.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := rename(x.Hi)
		if err != nil {
			return nil, err
		}
		return &sqlparser.BetweenExpr{E: in, Lo: lo, Hi: hi, Not: x.Not}, nil
	case *sqlparser.IsNullExpr:
		in, err := rename(x.E)
		if err != nil {
			return nil, err
		}
		return &sqlparser.IsNullExpr{E: in, Not: x.Not}, nil
	case *sqlparser.FuncCall:
		n := len(b.an.unsupported)
		for _, a := range x.Args {
			if _, err := rename(a); err != nil {
				return nil, err
			}
		}
		if len(b.an.unsupported) == n {
			b.an.fail(nil, "function "+x.Name+" not computable")
		}
		return e, nil
	case *sqlparser.Param:
		// The server statement runs without the client's parameters.
		v, err := sqldb.EvalConst(x, b.params)
		if err != nil {
			return nil, err
		}
		return valueToExpr(v), nil
	case *sqlparser.IntLit, *sqlparser.StrLit, *sqlparser.BytesLit,
		*sqlparser.NullLit, *sqlparser.BoolLit:
		return e, nil
	}
	b.an.fail(nil, fmt.Sprintf("unsupported predicate %T", e))
	return e, nil
}
