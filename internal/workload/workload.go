// Package workload defines the common execution interface shared by the
// paper's three measured configurations — unmodified DBMS, DBMS behind a
// plain pass-through proxy, and CryptDB — plus adapters for the first two.
package workload

import (
	"repro/internal/sqldb"
	"repro/internal/sqlparser"
)

// Executor runs one SQL statement; sqldb.DB (via PlainDB), proxy.Proxy,
// mp.Manager and strawman.Proxy all satisfy it.
type Executor interface {
	Execute(sql string, params ...sqldb.Value) (*sqldb.Result, error)
}

// PlainDB adapts a raw sqldb.DB to Executor: the paper's "MySQL"
// configuration.
type PlainDB struct{ DB *sqldb.DB }

// Execute parses and runs sql directly against the DBMS.
func (p PlainDB) Execute(sql string, params ...sqldb.Value) (*sqldb.Result, error) {
	return p.DB.ExecSQL(sql, params...)
}

// Passthrough models the paper's "MySQL+proxy" configuration (Figure 14):
// queries are parsed, shuttled and re-issued — the fixed cost of proxying
// without any cryptography.
type Passthrough struct{ DB *sqldb.DB }

// Execute parses, re-serializes, re-parses and executes — approximating the
// MySQL-proxy byte-shuttling and parsing overhead.
func (p Passthrough) Execute(sql string, params ...sqldb.Value) (*sqldb.Result, error) {
	st, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	st2, err := sqlparser.Parse(st.String())
	if err != nil {
		return nil, err
	}
	return p.DB.Exec(st2, params...)
}

// rangeTableKey scatters row ordinal i over a 2^30 key domain.
func rangeTableKey(i int) int64 { return int64(uint32(i) * 2654435761 % (1 << 30)) }

// LoadRangeTable creates table r(k INT, v INT) with rows scattered keys,
// optionally under the default (hash + ordered) index on k. Rows load
// through pre-built multi-row INSERT ASTs so setup is not parser-bound.
func LoadRangeTable(db *sqldb.DB, rows int, indexed bool) error {
	if _, err := db.ExecSQL("CREATE TABLE r (k INT, v INT)"); err != nil {
		return err
	}
	if indexed {
		if _, err := db.ExecSQL("CREATE INDEX rk ON r (k)"); err != nil {
			return err
		}
	}
	const batch = 1000
	for base := 0; base < rows; base += batch {
		n := batch
		if rows-base < n {
			n = rows - base
		}
		st := &sqlparser.InsertStmt{Table: "r", Columns: []string{"k", "v"}}
		for i := 0; i < n; i++ {
			st.Rows = append(st.Rows, []sqlparser.Expr{
				&sqlparser.IntLit{V: rangeTableKey(base + i)},
				&sqlparser.IntLit{V: int64(base + i)},
			})
		}
		if _, err := db.Exec(st); err != nil {
			return err
		}
	}
	return nil
}
