package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/sqldb"
	"repro/internal/workload/tpcc"
)

// The line protocol has no bind parameters, so everything the server sees
// is a literal-inlined SQL line. This file turns (mix, seed, connection)
// into those lines: the load script, and one endless statement stream per
// connection. The same arguments always produce the same bytes, so the
// traced in-process run and the plaintext oracle see what the server saw.

// op is one generated statement.
type op struct {
	class int    // index into mix.classes
	line  string // one protocol line
	plain int64  // user bytes a write carries (8 per INT, len per TEXT)
	// update marks a write that sets one row, found by key, to val: after
	// the crash that row must hold the last acknowledged val of some
	// connection.
	update bool
	key    int64
	val    string
}

// class is one statement class of a mix.
type class struct {
	name  string
	write bool
	// stable classes read only columns and rows no write class touches,
	// so their answer during the concurrent interval is the oracle's.
	stable bool
}

// mix is a schema, its load script and its statement streams.
type mix struct {
	name    string
	classes []class
	ddl     []string
	// load returns the INSERT lines and the plaintext bytes they carry
	// (8 per INT, len per TEXT).
	load func(seed int64) (lines []string, plainBytes int64)
	// tables maps each table to its loaded row count, for the header.
	tables map[string]int
	// stream returns connection conn's generator (of nconn).
	stream func(seed int64, conn, nconn int) generator
	// probe renders the read of an updated key's current value.
	probe func(key int64) string
	// totals are order-independent aggregates compared with the oracle
	// after the crash: every acknowledged insert, delete and increment
	// shows in one of them.
	totals []string
}

type generator interface {
	next() op
	forClass(c int) op
}

// inline substitutes params for the ? placeholders of sql, in order.
func inline(sql string, params []sqldb.Value) string {
	var sb strings.Builder
	sb.Grow(len(sql) + 16*len(params))
	pi := 0
	for i := 0; i < len(sql); i++ {
		if sql[i] != '?' {
			sb.WriteByte(sql[i])
			continue
		}
		writeLiteral(&sb, params[pi])
		pi++
	}
	return sb.String()
}

func writeLiteral(sb *strings.Builder, v sqldb.Value) {
	switch v.Kind {
	case sqldb.KindInt:
		sb.WriteString(strconv.FormatInt(v.I, 10))
	case sqldb.KindNull:
		sb.WriteString("NULL")
	default:
		sb.WriteString(quote(v.S))
	}
}

// quote renders s as a SQL string literal the lexer reads back unchanged.
func quote(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return "'" + strings.ReplaceAll(s, "'", "''") + "'"
}

func plainSize(params []sqldb.Value) int64 {
	var n int64
	for _, v := range params {
		if v.Kind == sqldb.KindInt {
			n += 8
		} else {
			n += int64(len(v.S))
		}
	}
	return n
}

//
// tpcc: internal/workload/tpcc's schema, loader and 8-class mix.
//

func tpccMix(cfg tpcc.Config) *mix {
	var classes []class
	for _, c := range tpcc.Classes() {
		name := strings.ToLower(strings.NewReplacer(" ", "", ".", "").Replace(c.String()))
		write := c >= tpcc.Delete
		// Every read class reads columns no write class changes.
		classes = append(classes, class{name: name, write: write, stable: !write})
	}
	ddl := tpcc.Schema()
	for i, s := range ddl {
		ddl[i] = strings.Join(strings.Fields(s), " ") // one line each
	}
	d := cfg.Warehouses * cfg.Districts
	return &mix{
		name:    "tpcc",
		classes: classes,
		ddl:     ddl,
		load: func(seed int64) ([]string, int64) {
			c := cfg
			c.Seed = seed
			rec := &recorder{}
			if err := tpcc.Load(rec, c); err != nil {
				panic(err) // the recorder never fails
			}
			rec.flush()
			return rec.lines, rec.plain
		},
		tables: map[string]int{
			"warehouse": cfg.Warehouses, "district": d, "customer": d * cfg.Customers,
			"orders": d * cfg.Orders, "order_line": 3 * d * cfg.Orders,
			"new_order": d * (cfg.Orders - cfg.Orders*2/3), "item": cfg.Items,
			"stock": cfg.Items * cfg.Warehouses, "history": 0,
		},
		stream: func(seed int64, conn, nconn int) generator {
			c := cfg
			c.Seed = seed*1000 + int64(conn) + 1
			return &tpccGen{g: tpcc.NewGenerator(c)}
		},
		probe: func(key int64) string {
			return "SELECT c_data FROM customer WHERE c_id = " + strconv.FormatInt(key, 10)
		},
		totals: []string{
			"SELECT COUNT(*) FROM history",
			"SELECT SUM(d_ytd) FROM district",
			"SELECT COUNT(*) FROM new_order",
		},
	}
}

// recorder is a workload.Executor that keeps the INSERTs tpcc.Load issues,
// as lines, and executes nothing (the DDL is sent separately). Consecutive
// rows of one table are merged into multi-row INSERTs of loadBatch rows:
// the load then costs a few dozen commits, not one per row, which matters
// when every commit is an fsync.
type recorder struct {
	lines []string
	plain int64
	head  string   // "INSERT INTO t (...) VALUES " of the pending batch
	rows  []string // its value tuples
}

func (r *recorder) Execute(sql string, params ...sqldb.Value) (*sqldb.Result, error) {
	head, tuple, ok := strings.Cut(sql, "VALUES ")
	if !ok || !strings.HasPrefix(sql, "INSERT") {
		return &sqldb.Result{}, nil
	}
	if head != r.head || len(r.rows) == loadBatch {
		r.flush()
		r.head = head
	}
	r.rows = append(r.rows, inline(tuple, params))
	r.plain += plainSize(params)
	return &sqldb.Result{}, nil
}

func (r *recorder) flush() {
	if len(r.rows) > 0 {
		r.lines = append(r.lines, r.head+"VALUES "+strings.Join(r.rows, ", "))
	}
	r.rows = nil
}

type tpccGen struct{ g *tpcc.Generator }

func (t *tpccGen) next() op {
	c, sql, params := t.g.Next()
	return tpccOp(c, sql, params)
}

func (t *tpccGen) forClass(c int) op {
	sql, params := t.g.ForClass(tpcc.Class(c))
	return tpccOp(tpcc.Class(c), sql, params)
}

func tpccOp(c tpcc.Class, sql string, params []sqldb.Value) op {
	o := op{class: int(c), line: inline(sql, params)}
	if c >= tpcc.Delete {
		o.plain = plainSize(params)
	}
	if c == tpcc.UpdSet { // SET c_credit = ?, c_data = ? WHERE c_id = ?
		o.update, o.key, o.val = true, params[2].I, params[1].S
	}
	return o
}

//
// analytic: a two-table schema the benchmark owns, and an 8-class mix of
// point reads, joins, grouped HOM sums, OPE ranges, searches and writes.
//

type analyticCfg struct {
	users, orders, groups int
}

const (
	anPoint = iota
	anJoin
	anGroupBy
	anJoinGroupBy
	anRangeTopK
	anSearch
	anUpdate
	anInsert
)

// anWeights sum to 100.
var anWeights = []int{20, 15, 15, 10, 15, 10, 10, 5}

const (
	anVocab     = 1000 // distinct words
	anDays      = 365
	anBioWords  = 12
	anNoteWords = 6
	anAmtMul    = 100000 // amt = r*anAmtMul + id: unique, so ORDER BY amt has no ties
	// Inserted orders take ids from here up, striped by connection; ids
	// stay below anAmtMul so amt stays unique.
	anInsertBase = 50_000
)

func analyticMix(cfg analyticCfg) *mix {
	return &mix{
		name: "analytic",
		classes: []class{
			{name: "point", stable: true}, {name: "join"}, {name: "groupby"}, {name: "join_groupby"},
			{name: "range_topk"}, {name: "search", stable: true},
			{name: "update", write: true}, {name: "insert", write: true},
		},
		ddl: []string{
			"CREATE TABLE users (id INT PRIMARY KEY, grp INT, name TEXT, bio TEXT)",
			"CREATE TABLE orders (id INT PRIMARY KEY, uid INT, grp INT, amt INT, day INT, note TEXT)",
			"CREATE INDEX orders_uid ON orders (uid)",
			"CREATE INDEX orders_amt ON orders (amt)",
			"CREATE INDEX users_grp ON users (grp)",
		},
		load:   func(seed int64) ([]string, int64) { return analyticLoad(cfg, seed) },
		tables: map[string]int{"users": cfg.users, "orders": cfg.orders},
		stream: func(seed int64, conn, nconn int) generator {
			return &analyticGen{
				cfg: cfg, rng: rand.New(rand.NewSource(seed*1000 + int64(conn) + 1)),
				conn: conn, nconn: nconn,
			}
		},
		probe: func(key int64) string {
			return "SELECT note FROM orders WHERE id = " + strconv.FormatInt(key, 10)
		},
		totals: []string{
			"SELECT COUNT(*), SUM(amt) FROM orders",
			"SELECT COUNT(*) FROM users",
		},
	}
}

// word is a fixed-width token, so no word is a substring of another and a
// plaintext LIKE '%word%' agrees with the proxy's full-word search.
func word(i int) string { return fmt.Sprintf("kw%04d", i) }

func words(rng *rand.Rand, n int) string {
	ws := make([]string, n)
	for i := range ws {
		ws[i] = word(rng.Intn(anVocab))
	}
	return strings.Join(ws, " ")
}

func orderRow(cfg analyticCfg, rng *rand.Rand, id int64) (row string, plain int64) {
	uid := rng.Intn(cfg.users)
	amt := int64(rng.Intn(1000))*anAmtMul + id%anAmtMul
	note := words(rng, anNoteWords)
	return fmt.Sprintf("(%d, %d, %d, %d, %d, %s)", id, uid, uid%cfg.groups, amt, rng.Intn(anDays), quote(note)),
		5*8 + int64(len(note))
}

// loadBatch is the rows per load INSERT: multi-row statements are the shape
// the proxy's batched encryption pipeline is built for.
const loadBatch = 50

func analyticLoad(cfg analyticCfg, seed int64) (lines []string, plain int64) {
	rng := rand.New(rand.NewSource(seed))
	emit := func(head string, n int, row func(i int) string) {
		for lo := 0; lo < n; lo += loadBatch {
			var sb strings.Builder
			sb.WriteString(head)
			for i := lo; i < lo+loadBatch && i < n; i++ {
				if i > lo {
					sb.WriteString(", ")
				}
				sb.WriteString(row(i))
			}
			lines = append(lines, sb.String())
		}
	}
	emit("INSERT INTO users (id, grp, name, bio) VALUES ", cfg.users, func(i int) string {
		name, bio := fmt.Sprintf("user-%05d", i), words(rng, anBioWords)
		plain += 2*8 + int64(len(name)+len(bio))
		return fmt.Sprintf("(%d, %d, %s, %s)", i, i%cfg.groups, quote(name), quote(bio))
	})
	emit("INSERT INTO orders (id, uid, grp, amt, day, note) VALUES ", cfg.orders, func(i int) string {
		row, n := orderRow(cfg, rng, int64(i))
		plain += n
		return row
	})
	return lines, plain
}

type analyticGen struct {
	cfg         analyticCfg
	rng         *rand.Rand
	conn, nconn int
	inserted    int64
}

func (g *analyticGen) next() op {
	n := g.rng.Intn(100)
	for c, w := range anWeights {
		if n < w {
			return g.forClass(c)
		}
		n -= w
	}
	panic("anWeights do not sum to 100")
}

func (g *analyticGen) forClass(c int) op {
	o := op{class: c}
	switch c {
	case anPoint:
		// Nine reads in ten go to the first tenth of the ids: the hot set.
		id := g.rng.Intn(g.cfg.users)
		if g.rng.Intn(10) > 0 {
			id = g.rng.Intn(g.cfg.users/10 + 1)
		}
		o.line = fmt.Sprintf("SELECT name, grp FROM users WHERE id = %d", id)
	case anJoin:
		o.line = fmt.Sprintf("SELECT u.name, o.amt FROM users u JOIN orders o ON o.uid = u.id WHERE u.grp = %d",
			g.rng.Intn(g.cfg.groups))
	case anGroupBy:
		o.line = "SELECT grp, COUNT(*), SUM(amt) FROM orders GROUP BY grp"
	case anJoinGroupBy:
		o.line = "SELECT u.grp, COUNT(*), SUM(o.amt) FROM users u JOIN orders o ON o.uid = u.id GROUP BY u.grp"
	case anRangeTopK:
		// Fifty distinct ranges, each a tenth of the amounts: few enough
		// that the warm-up has OPE-encrypted most bounds already.
		lo := int64(g.rng.Intn(50)) * 18 * anAmtMul
		o.line = fmt.Sprintf("SELECT id, amt FROM orders WHERE amt BETWEEN %d AND %d ORDER BY amt LIMIT 20",
			lo, lo+100*anAmtMul)
	case anSearch:
		o.line = fmt.Sprintf("SELECT id, name FROM users WHERE bio LIKE '%%%s%%'", word(g.rng.Intn(anVocab)))
	case anUpdate:
		// Each connection updates its own stripe of the loaded orders, so
		// the final note of every row is known without ordering the
		// connections' acknowledgements.
		id := int64(g.rng.Intn(g.cfg.orders/g.nconn)*g.nconn + g.conn)
		o.update, o.key, o.val = true, id, words(g.rng, anNoteWords)
		o.plain = int64(len(o.val))
		o.line = fmt.Sprintf("UPDATE orders SET note = %s WHERE id = %d", quote(o.val), id)
	case anInsert:
		id := anInsertBase + g.inserted*int64(g.nconn) + int64(g.conn)
		g.inserted++
		var row string
		row, o.plain = orderRow(g.cfg, g.rng, id)
		o.line = "INSERT INTO orders (id, uid, grp, amt, day, note) VALUES " + row
	}
	return o
}
