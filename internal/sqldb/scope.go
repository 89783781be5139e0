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

func valueText(v Value) string {
	if v.Kind == KindBlob {
		return string(v.B)
	}
	return v.String()
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
		// Called under db.mu held by Exec; see compileFuncCall.
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
