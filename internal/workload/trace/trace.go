// Package trace synthesizes the sql.mit.edu-style query trace of §8 and
// the per-application query sets of the security evaluation. The real
// 126M-query MIT trace is private; what the paper's Figures 7 and 9 depend
// on is the *distribution of computation classes per column* (equality,
// order, search, sums, and operations CryptDB cannot support), which this
// generator reproduces: each column is assigned an operation profile and
// the generator emits queries exercising exactly that profile. See the
// paper's §8.1.
package trace

import (
	"fmt"
	"math/rand"

	"repro/internal/sqldb"
)

// Query is one trace query with bound parameters.
type Query struct {
	SQL    string
	Params []sqldb.Value
}

// App is one application (one database) in the trace: its schema (used
// tables only) and its query stream. UnusedTables/UnusedColumns account for
// schema never seen in queries (Figure 7's "complete schema" vs "used in
// query" split).
type App struct {
	Name          string
	Schema        []string
	Queries       []Query
	UnusedTables  int
	UnusedColumns int
}

// colClass is the operation profile of one column.
type colClass int

const (
	classNone   colClass = iota // projection only -> stays RND
	classDet                    // equality lookups -> DET
	classJoin                   // equi-join -> JOIN
	classOpe                    // range/order -> OPE
	classSearch                 // LIKE word search -> SEARCH
	classHom                    // SUM/increment -> HOM (Add onion)
	classPlain                  // bitwise/string/date ops -> needs plaintext
)

// Profile gives the column-class counts for one application. The named
// profiles below are taken from Figure 9.
type Profile struct {
	Name   string
	None   int // columns only inserted/fetched (stay RND)
	Det    int
	Join   int
	Ope    int
	Search int
	Hom    int
	Plain  int
}

// Total counts all considered columns.
func (p Profile) Total() int {
	return p.None + p.Det + p.Join + p.Ope + p.Search + p.Hom + p.Plain
}

// PaperProfiles returns per-application profiles matching the
// considered-column rows of Figure 9 (sensitive columns only; Det includes
// the paper's DET+JOIN column, Hom the needs-HOM column, etc.).
func PaperProfiles() []Profile {
	return []Profile{
		// name, none(RND), det, join, ope, search, hom, plain —
		// totals match Figure 9's considered-column counts.
		{Name: "phpBB", None: 20, Det: 0, Join: 1, Ope: 1, Search: 0, Hom: 1, Plain: 0},
		{Name: "HotCRP", None: 16, Det: 1, Join: 0, Ope: 2, Search: 1, Hom: 2, Plain: 0},
		{Name: "grad-apply", None: 93, Det: 4, Join: 2, Ope: 2, Search: 2, Hom: 0, Plain: 0},
		{Name: "OpenEMR", None: 525, Det: 8, Join: 4, Ope: 19, Search: 3, Hom: 0, Plain: 7},
		{Name: "MIT-6.02", None: 7, Det: 3, Join: 1, Ope: 2, Search: 0, Hom: 0, Plain: 0},
		{Name: "PHP-calendar", None: 3, Det: 3, Join: 1, Ope: 1, Search: 2, Hom: 0, Plain: 2},
	}
}

// TraceProfile returns the aggregate profile of the sql.mit.edu trace
// (Figure 9 "with in-proxy processing" row), scaled by factor (1.0 =
// 128,840 columns — far more than needed; benchmarks use ~0.01).
func TraceProfile(factor float64) Profile {
	s := func(n int) int {
		v := int(float64(n) * factor)
		if n > 0 && v == 0 {
			v = 1
		}
		return v
	}
	// 128,840 columns: 84,008 RND, 398 SEARCH-minenc, 35,350 DET,
	// 8,513 OPE, 571 plaintext; 1,016 need HOM and 1,135 need SEARCH
	// overall. HOM/SEARCH-needing columns largely remain at higher
	// MinEnc; we fold them into dedicated classes.
	return Profile{
		Name:   "sql.mit.edu",
		None:   s(84008 - 1016), // RND columns not needing HOM
		Hom:    s(1016),
		Search: s(1135),
		Det:    s(35350 - 1135), // DET minus the searched ones
		Join:   s(2000),         // part of the DET/JOIN population
		Ope:    s(8513),
		Plain:  s(571),
	}
}

// Generate builds one App from a profile: a schema holding its columns
// (packed into tables of up to 12 columns) and a query stream exercising
// each column per its class.
func Generate(p Profile, seed int64) App {
	rng := rand.New(rand.NewSource(seed))
	app := App{Name: p.Name}

	// Joins need a partner column; an odd join count folds one column
	// into the equality class (the paper buckets DET and JOIN together).
	if p.Join%2 == 1 {
		p.Join--
		p.Det++
	}

	type colSpec struct {
		table, name string
		class       colClass
		isText      bool
	}
	var cols []colSpec
	add := func(class colClass, n int, text bool) {
		for i := 0; i < n; i++ {
			cols = append(cols, colSpec{class: class, isText: text})
		}
	}
	add(classNone, p.None, true)
	add(classDet, p.Det, false)
	add(classJoin, p.Join, false)
	add(classOpe, p.Ope, false)
	add(classSearch, p.Search, true)
	add(classHom, p.Hom, false)
	add(classPlain, p.Plain, false)
	rng.Shuffle(len(cols), func(i, j int) { cols[i], cols[j] = cols[j], cols[i] })

	// Pack into tables of up to 12 columns; each table gets a plain id
	// (row identifiers are not treated as sensitive here, so the
	// considered-for-encryption counts match the profile exactly).
	perTable := 12
	nTables := (len(cols) + perTable - 1) / perTable
	for t := 0; t < nTables; t++ {
		tname := fmt.Sprintf("t%d", t+1)
		ddl := fmt.Sprintf("CREATE TABLE %s (id INT PLAIN", tname)
		for i := t * perTable; i < (t+1)*perTable && i < len(cols); i++ {
			cols[i].table = tname
			cols[i].name = fmt.Sprintf("col%d", i)
			typ := "INT"
			if cols[i].isText {
				typ = "TEXT"
			}
			ddl += fmt.Sprintf(", %s %s", cols[i].name, typ)
		}
		ddl += ")"
		app.Schema = append(app.Schema, ddl)
	}

	// Query stream: several queries per column, per class. Join columns
	// pair up with each other.
	var joinCols []colSpec
	for i, c := range cols {
		switch c.class {
		case classNone:
			app.Queries = append(app.Queries, Query{
				SQL:    fmt.Sprintf("SELECT %s FROM %s WHERE id = ?", c.name, c.table),
				Params: []sqldb.Value{sqldb.Int(int64(i))},
			})
		case classDet:
			app.Queries = append(app.Queries, Query{
				SQL:    fmt.Sprintf("SELECT id FROM %s WHERE %s = ?", c.table, c.name),
				Params: []sqldb.Value{sqldb.Int(int64(i))},
			})
		case classJoin:
			joinCols = append(joinCols, c)
			if len(joinCols)%2 == 0 {
				a, b := joinCols[len(joinCols)-2], joinCols[len(joinCols)-1]
				app.Queries = append(app.Queries, Query{
					SQL: fmt.Sprintf("SELECT COUNT(*) FROM %s a JOIN %s b ON a.%s = b.%s",
						a.table, b.table, a.name, b.name),
				})
			}
		case classOpe:
			app.Queries = append(app.Queries, Query{
				SQL:    fmt.Sprintf("SELECT id FROM %s WHERE %s < ? LIMIT 5", c.table, c.name),
				Params: []sqldb.Value{sqldb.Int(int64(i))},
			})
		case classSearch:
			app.Queries = append(app.Queries, Query{
				SQL: fmt.Sprintf("SELECT id FROM %s WHERE %s LIKE '%%word%d%%'", c.table, c.name, i),
			})
		case classHom:
			app.Queries = append(app.Queries, Query{
				SQL: fmt.Sprintf("SELECT SUM(%s) FROM %s", c.name, c.table),
			})
		case classPlain:
			// One of the three plaintext-needing shapes of §8.2:
			// bitwise predicates, string manipulation, math in WHERE.
			switch i % 3 {
			case 0:
				app.Queries = append(app.Queries, Query{
					SQL: fmt.Sprintf("SELECT id FROM %s WHERE %s & 4 = 4", c.table, c.name),
				})
			case 1:
				app.Queries = append(app.Queries, Query{
					SQL: fmt.Sprintf("SELECT id FROM %s WHERE lower_case(%s) = 'x'", c.table, c.name),
				})
			default:
				app.Queries = append(app.Queries, Query{
					SQL: fmt.Sprintf("SELECT id FROM %s WHERE %s > id * 2 + 1", c.table, c.name),
				})
			}
		}
	}

	// Unused schema for Figure 7 accounting: the complete schema holds
	// roughly 9.7x more columns than the query trace touches.
	app.UnusedTables = nTables * 8
	app.UnusedColumns = len(cols) * 8
	return app
}

// GenerateTrace builds the multi-database trace: nDBs application databases
// whose aggregate column-class distribution matches the paper's trace row,
// plus Figure 7-style unused-schema accounting.
func GenerateTrace(nDBs int, factor float64, seed int64) []App {
	total := TraceProfile(factor)
	rng := rand.New(rand.NewSource(seed))
	apps := make([]App, 0, nDBs)
	remaining := total
	for i := 0; i < nDBs; i++ {
		last := i == nDBs-1
		take := func(rem *int) int {
			if last {
				v := *rem
				*rem = 0
				return v
			}
			share := *rem / (nDBs - i)
			// jitter for realism
			if share > 1 {
				share += rng.Intn(share) - share/2
			}
			if share > *rem {
				share = *rem
			}
			if share < 0 {
				share = 0
			}
			*rem -= share
			return share
		}
		p := Profile{
			Name:   fmt.Sprintf("db%04d", i+1),
			None:   take(&remaining.None),
			Det:    take(&remaining.Det),
			Join:   take(&remaining.Join),
			Ope:    take(&remaining.Ope),
			Search: take(&remaining.Search),
			Hom:    take(&remaining.Hom),
			Plain:  take(&remaining.Plain),
		}
		if p.Total() == 0 {
			p.None = 1
		}
		apps = append(apps, Generate(p, seed+int64(i)*17))
	}
	return apps
}

// SchemaStats aggregates Figure 7-style counts over a set of apps.
type SchemaStats struct {
	Databases, Tables, Columns             int // complete schema
	UsedDatabases, UsedTables, UsedColumns int // seen in queries
}

// Stats computes schema statistics for Figure 7.
func Stats(apps []App) SchemaStats {
	var s SchemaStats
	for _, a := range apps {
		s.Databases++
		s.UsedDatabases++
		usedTables := len(a.Schema)
		usedCols := 0
		for _, q := range a.Queries {
			_ = q
		}
		// Count declared columns from the DDL strings: one "col" per
		// ", colN " occurrence plus the id column.
		for _, ddl := range a.Schema {
			usedCols += countCols(ddl)
		}
		s.UsedTables += usedTables
		s.UsedColumns += usedCols
		s.Tables += usedTables + a.UnusedTables
		s.Columns += usedCols + a.UnusedColumns
	}
	// Unused databases exist too: the paper sees 8,548 databases but
	// only 1,193 in queries (~7.2x).
	s.Databases = s.UsedDatabases * 7
	return s
}

func countCols(ddl string) int {
	n := 0
	for i := 0; i+1 < len(ddl); i++ {
		if ddl[i] == ',' {
			n++
		}
	}
	return n + 1 // id column plus one per comma
}
