package sqldb

import (
	"strconv"
	"sync/atomic"

	"repro/internal/sqlparser"
)

// This file is the scan planner: it extracts sargable conjuncts from a
// WHERE clause (`col = const`, `col < const`, BETWEEN, ...), resolves them
// against the available hash and ordered indexes, and picks the cheapest
// access path per table. The full WHERE clause is always re-applied to the
// candidate rows afterwards, so the planner only ever has to produce a
// superset of the matching rows for the conjuncts it consumed.

// colBounds accumulates the sargable constraints one WHERE clause places on
// a single column.
type colBounds struct {
	eq           *Value
	lo, hi       *Value
	loInc, hiInc bool
	// impossible: a conjunct can never match (e.g. compares the column to
	// NULL, or two equality conjuncts demand different values), so the
	// whole AND is false for every row.
	impossible bool
	// bad: the constraints mix kinds in ways whose evaluation may error;
	// the planner must not consume them (a scan preserves the error).
	bad bool
}

func (b *colBounds) addEq(v Value) {
	if v.IsNull() {
		b.impossible = true // `col = NULL` matches nothing
		return
	}
	if b.eq == nil {
		b.eq = &v
		return
	}
	if c, err := b.eq.Compare(v); err != nil {
		b.bad = true
	} else if c != 0 {
		b.impossible = true
	}
}

func (b *colBounds) addLo(v Value, inclusive bool) {
	if v.IsNull() {
		b.impossible = true
		return
	}
	if b.lo == nil {
		b.lo, b.loInc = &v, inclusive
		return
	}
	c, err := b.lo.Compare(v)
	if err != nil {
		b.bad = true
		return
	}
	if c < 0 || (c == 0 && b.loInc && !inclusive) {
		b.lo, b.loInc = &v, inclusive
	}
}

func (b *colBounds) addHi(v Value, inclusive bool) {
	if v.IsNull() {
		b.impossible = true
		return
	}
	if b.hi == nil {
		b.hi, b.hiInc = &v, inclusive
		return
	}
	c, err := b.hi.Compare(v)
	if err != nil {
		b.bad = true
		return
	}
	if c > 0 || (c == 0 && b.hiInc && !inclusive) {
		b.hi, b.hiInc = &v, inclusive
	}
}

// sargBounds extracts, for scope table ti, the per-column bounds implied by
// the conjuncts: comparisons between one of ti's columns and a constant
// (either side), and non-negated BETWEEN with constant endpoints.
func (db *DB) sargBounds(conj []sqlparser.Expr, sc *scope, ti int, params []Value) map[string]*colBounds {
	var out map[string]*colBounds
	get := func(col string) *colBounds {
		if out == nil {
			out = make(map[string]*colBounds)
		}
		b := out[col]
		if b == nil {
			b = &colBounds{}
			out[col] = b
		}
		return b
	}

	for _, pred := range conj {
		switch x := pred.(type) {
		case *sqlparser.BinaryExpr:
			col, v, op, ok := db.constCmp(x, sc, ti, params)
			if !ok {
				continue
			}
			b := get(col)
			switch op {
			case "=":
				b.addEq(v)
			case "<":
				b.addHi(v, false)
			case "<=":
				b.addHi(v, true)
			case ">":
				b.addLo(v, false)
			case ">=":
				b.addLo(v, true)
			}
		case *sqlparser.BetweenExpr:
			if x.Not {
				continue
			}
			cr, ok := x.E.(*sqlparser.ColRef)
			if !ok {
				continue
			}
			cti, _, err := sc.resolve(cr.Table, cr.Column)
			if err != nil || cti != ti {
				continue
			}
			lo, okLo := db.evalConstOperand(x.Lo, params)
			hi, okHi := db.evalConstOperand(x.Hi, params)
			if !okLo || !okHi {
				continue
			}
			b := get(cr.Column)
			b.addLo(lo, true)
			b.addHi(hi, true)
		}
	}
	return out
}

// constCmp recognizes `col OP constant` (either side, flipping the operator
// when the constant is on the left) where col belongs to scope table ti.
func (db *DB) constCmp(x *sqlparser.BinaryExpr, sc *scope, ti int, params []Value) (string, Value, string, bool) {
	flip := map[string]string{"=": "=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}
	op, sarg := flip[x.Op]
	if !sarg {
		return "", Value{}, "", false
	}
	try := func(colSide, valSide sqlparser.Expr, op string) (string, Value, string, bool) {
		cr, ok := colSide.(*sqlparser.ColRef)
		if !ok {
			return "", Value{}, "", false
		}
		cti, _, err := sc.resolve(cr.Table, cr.Column)
		if err != nil || cti != ti {
			return "", Value{}, "", false
		}
		v, ok := db.evalConstOperand(valSide, params)
		if !ok {
			return "", Value{}, "", false
		}
		return cr.Column, v, op, true
	}
	if col, v, o, ok := try(x.L, x.R, x.Op); ok {
		return col, v, o, true
	}
	return try(x.R, x.L, op)
}

// evalConstOperand evaluates an expression that involves no row context.
func (db *DB) evalConstOperand(e sqlparser.Expr, params []Value) (Value, bool) {
	if !isConstant(e) {
		return Value{}, false
	}
	ce, err := (&exprCompiler{db: db, sc: &scope{}}).compile(e)
	if err != nil {
		return Value{}, false
	}
	v, err := ce(&execEnv{params: params})
	if err != nil {
		return Value{}, false
	}
	return v, true
}

// coerceOrdBound maps a bound constant into the index's sole kind the same
// way Value.Compare would per row, or reports that the index is unusable
// for this bound (e.g. an integer bound against a text column, whose rows
// coerce individually and do not follow lexicographic order).
func coerceOrdBound(v Value, kind Kind) (Value, bool) {
	if v.Kind == kind {
		return v, true
	}
	if kind == KindInt && v.Kind == KindText {
		if n, err := strconv.ParseInt(v.S, 10, 64); err == nil {
			return Int(n), true
		}
	}
	return Value{}, false
}

// rangeFor resolves bounds into a key interval over the index, or reports
// the index unusable for them.
func (ix *ordIndex) rangeFor(b *colBounds) (ordRange, bool) {
	if ix.entries == ix.kindCount[KindNull] {
		// Empty or all-NULL: no comparison predicate can match.
		return ordRange{empty: true}, true
	}
	kind, homogeneous := ix.soleKind()
	if !homogeneous {
		return ordRange{}, false
	}
	var r ordRange
	if b.eq != nil {
		v, ok := coerceOrdBound(*b.eq, kind)
		if !ok {
			return ordRange{}, false
		}
		key := v.OrdKey()
		return ordRange{lo: key, hi: key, hasLo: true, hasHi: true, loInc: true, hiInc: true}, true
	}
	if b.lo != nil {
		v, ok := coerceOrdBound(*b.lo, kind)
		if !ok {
			return ordRange{}, false
		}
		r.lo, r.hasLo, r.loInc = v.OrdKey(), true, b.loInc
	}
	if b.hi != nil {
		v, ok := coerceOrdBound(*b.hi, kind)
		if !ok {
			return ordRange{}, false
		}
		r.hi, r.hasHi, r.hiInc = v.OrdKey(), true, b.hiInc
	}
	return r, true
}

// Access-path kinds, cheapest first when costs tie.
const (
	accessScan = iota
	accessEq
	accessRange
	accessEmpty
	accessFeed
)

// access is the chosen way to read one table's candidate rows.
type access struct {
	kind  int
	cost  int
	slots []int     // accessEq
	idx   *ordIndex // accessRange
	rng   ordRange
	rows  [][]Value // accessFeed
	// pos is the column the index path was chosen on (accessEq,
	// accessRange); ws is the reading transaction's non-empty write set for
	// the table, or nil.
	pos int
	ws  *txnTable
}

// iterate visits the candidate rows of t under the access path. With a
// write set it visits the transaction's view of the table: a committed row
// the write set replaced is visited as the replacement, one it deleted not
// at all, and afterwards come the rows the index path could have missed —
// replacements whose value in the path's column moved, and pending inserts
// at slots nslots+i (i indexing ws.ins). That is a superset of the matches,
// which is all the planner promises: the full WHERE is re-applied.
func (a access) iterate(t *Table, fn func(slot int, row []Value) bool) {
	switch a.kind {
	case accessEmpty:
		return
	case accessFeed:
		for i, row := range a.rows {
			if !fn(i, row) {
				return
			}
		}
		return
	}
	ws := a.ws
	if ws == nil {
		a.committed(t, fn)
		return
	}
	indexed := a.kind != accessScan
	more := a.committed(t, func(slot int, row []Value) bool {
		if m := ws.mods[slot]; m != nil {
			if m.deleted || (indexed && ws.movedAt(a.pos, slot)) {
				return true
			}
			row = m.row
		}
		return fn(slot, row)
	})
	if !more {
		return
	}
	if indexed {
		for _, slot := range ws.movedSlots(a.pos) {
			if !fn(slot, ws.mods[slot].row) {
				return
			}
		}
	}
	n := t.slotCount()
	for i, tr := range ws.ins {
		if !tr.deleted && !fn(n+i, tr.row) {
			return
		}
	}
}

// committed visits the committed rows of t that the path selects, and
// reports false if fn stopped the walk.
func (a access) committed(t *Table, fn func(slot int, row []Value) bool) bool {
	more := true
	switch a.kind {
	case accessEq:
		for _, slot := range a.slots {
			if row := t.rowAt(slot); row != nil && !fn(slot, row) {
				return false
			}
		}
	case accessRange:
		a.idx.ascendRange(a.rng, func(n *ordNode) bool {
			for _, slot := range n.slots {
				if row := t.rowAt(slot); row != nil && !fn(slot, row) {
					more = false
					return false
				}
			}
			return true
		})
	default:
		return t.scan(fn)
	}
	return more
}

// count tallies the access in the DB's planner counters.
func (db *DB) countAccess(a access) {
	switch a.kind {
	case accessEq:
		atomic.AddInt64(&db.eqScans, 1)
	case accessRange:
		atomic.AddInt64(&db.rangeScans, 1)
	case accessScan:
		atomic.AddInt64(&db.fullScans, 1)
	}
}

// bestAccess picks the cheapest access path for scope table ti given the
// WHERE conjuncts: hash-index equality, ordered-index range, or full scan —
// or, for a fed entry (which has no indexes), its rows unless a conjunct
// can never match. Costs are the committed table's; the entry's write set
// rides along for iterate.
func (db *DB) bestAccess(t *Table, sc *scope, ti int, conj []sqlparser.Expr, params []Value) access {
	best := access{kind: accessScan, cost: t.live}
	if f := sc.tabs[ti].feed; f != nil {
		best = access{kind: accessFeed, cost: len(f.Rows), rows: f.Rows}
	}
	bounds := db.sargBounds(conj, sc, ti, params)
	for col, b := range bounds {
		if b.bad {
			continue
		}
		if b.impossible {
			return access{kind: accessEmpty}
		}
		if b.eq != nil {
			if idx, ok := t.indexes[col]; ok {
				if slots, usable := idx.eqSlots(*b.eq); usable {
					if len(slots) < best.cost {
						best = access{kind: accessEq, cost: len(slots), slots: slots, pos: idx.pos}
					}
					continue
				}
				// Kind mismatch between the bound and the stored values:
				// per-row coercion could still match, so no index applies.
				continue
			}
			// No hash index: fall through to the ordered index, which
			// serves equality as a one-key range.
		}
		ix := t.ordIndexes[col]
		if ix == nil || (b.lo == nil && b.hi == nil && b.eq == nil) {
			continue
		}
		rng, ok := ix.rangeFor(b)
		if !ok {
			continue
		}
		cost := ix.countRange(rng, best.cost)
		if cost < best.cost {
			best = access{kind: accessRange, cost: cost, idx: ix, rng: rng, pos: ix.pos}
		}
	}
	best.ws = sc.tabs[ti].ws
	return best
}

// joinOrder decides which table seeds a multi-table FROM clause. Comma
// joins (no ON clauses) may start from whichever table has the most
// selective access path; explicit JOIN ... ON chains keep their order, as
// each ON clause references the tables before it.
func joinOrder(s *sqlparser.SelectStmt, accesses []access) []int {
	order := make([]int, len(accesses))
	for i := range order {
		order[i] = i
	}
	if len(accesses) < 2 {
		return order
	}
	for _, ref := range s.From {
		if ref.JoinOn != nil {
			return order
		}
	}
	best := 0
	for i, a := range accesses {
		if a.cost < accesses[best].cost {
			best = i
		}
	}
	if best != 0 {
		copy(order[1:best+1], order[:best])
		order[0] = best
	}
	return order
}
