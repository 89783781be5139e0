package repro

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/mp"
	"repro/internal/onion"
	"repro/internal/proxy"
	"repro/internal/sqldb"
	"repro/internal/workload"
)

// TestEquivalenceRandomized is the core end-to-end property: any workload
// CryptDB supports returns exactly the same results through the proxy as it
// does on a plaintext database. Random schemas, values and queries.
func TestEquivalenceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))

	plain := workload.PlainDB{DB: sqldb.New()}
	p, err := proxy.New(sqldb.New(), proxy.Options{HOMBits: 256})
	if err != nil {
		t.Fatal(err)
	}
	run := func(sql string, params ...sqldb.Value) (*sqldb.Result, *sqldb.Result) {
		t.Helper()
		rp, errP := plain.Execute(sql, params...)
		re, errE := p.Execute(sql, params...)
		if (errP == nil) != (errE == nil) {
			t.Fatalf("%s: plain err %v, encrypted err %v", sql, errP, errE)
		}
		if errP != nil {
			return nil, nil
		}
		return rp, re
	}
	compare := func(sql string, rp, re *sqldb.Result) {
		t.Helper()
		if rp == nil {
			return
		}
		if len(rp.Rows) != len(re.Rows) {
			t.Fatalf("%s: plain %d rows, encrypted %d rows", sql, len(rp.Rows), len(re.Rows))
		}
		for i := range rp.Rows {
			for j := range rp.Rows[i] {
				a, b := rp.Rows[i][j], re.Rows[i][j]
				if a.IsNull() && b.IsNull() {
					continue
				}
				if !a.Equal(b) {
					t.Fatalf("%s: row %d col %d: %v vs %v", sql, i, j, a, b)
				}
			}
		}
	}

	run("CREATE TABLE inv (id INT PRIMARY KEY, sku TEXT, qty INT, price INT, note TEXT)")
	words := []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot"}
	for i := 1; i <= 60; i++ {
		note := fmt.Sprintf("%s %s item-%d", words[rng.Intn(len(words))], words[rng.Intn(len(words))], i)
		sql := "INSERT INTO inv (id, sku, qty, price, note) VALUES (?, ?, ?, ?, ?)"
		params := []sqldb.Value{
			sqldb.Int(int64(i)),
			sqldb.Text(fmt.Sprintf("sku-%d", rng.Intn(20))),
			sqldb.Int(int64(rng.Intn(100))),
			sqldb.Int(int64(rng.Intn(10000) - 5000)),
			sqldb.Text(note),
		}
		rp, re := run(sql, params...)
		compare(sql, rp, re)
	}

	queries := []string{
		"SELECT id, qty FROM inv WHERE id = 7",
		"SELECT COUNT(*) FROM inv WHERE sku = 'sku-3'",
		"SELECT id FROM inv WHERE qty > 50",
		"SELECT id FROM inv WHERE price BETWEEN -1000 AND 1000",
		"SELECT SUM(price) FROM inv",
		"SELECT sku, COUNT(*), SUM(qty) FROM inv GROUP BY sku ORDER BY sku",
		"SELECT MIN(price), MAX(price), AVG(qty) FROM inv",
		"SELECT DISTINCT sku FROM inv",
		"SELECT id FROM inv WHERE note LIKE '%alpha%'",
		"SELECT id FROM inv WHERE qty IN (1, 2, 3, 4, 5)",
		"SELECT id, price * 2 + 1 FROM inv WHERE id = 9",
		"SELECT id FROM inv ORDER BY price DESC LIMIT 5",
		"SELECT id FROM inv ORDER BY qty, id",
		"SELECT COUNT(DISTINCT sku) FROM inv",
		"SELECT sku FROM inv GROUP BY sku HAVING COUNT(*) > 2",
		"SELECT sku FROM inv GROUP BY sku HAVING SUM(qty) > 100",
	}
	for _, q := range queries {
		rp, re := run(q)
		compare(q, rp, re)
	}

	// Mutations, then re-verify a sample of reads.
	muts := []string{
		"UPDATE inv SET qty = qty + 5 WHERE id = 3",
		"UPDATE inv SET note = 'replaced note' WHERE id = 4",
		"UPDATE inv SET price = price * 2 WHERE id = 5",
		"DELETE FROM inv WHERE id = 6",
	}
	for _, q := range muts {
		run(q)
	}
	for _, q := range []string{
		"SELECT qty FROM inv WHERE id = 3",
		"SELECT note FROM inv WHERE id = 4",
		"SELECT price FROM inv WHERE id = 5",
		"SELECT COUNT(*) FROM inv",
		"SELECT SUM(qty) FROM inv",
		"SELECT id FROM inv WHERE qty > 50",
	} {
		rp, re := run(q)
		compare(q, rp, re)
	}
}

// TestFullLifecycle exercises training -> planned deployment -> adjustment
// -> re-encryption -> re-adjustment across the whole stack.
func TestFullLifecycle(t *testing.T) {
	ddl := []string{"CREATE TABLE ledger (acct INT, amount INT, memo TEXT)"}
	queries := []proxy.TrainQuery{
		{SQL: "SELECT memo FROM ledger WHERE acct = ?", Params: []sqldb.Value{sqldb.Int(1)}},
		{SQL: "SELECT SUM(amount) FROM ledger"},
	}
	plan, err := proxy.TrainPlan(ddl, queries)
	if err != nil {
		t.Fatal(err)
	}
	p, err := proxy.New(sqldb.New(), proxy.Options{HOMBits: 256, Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range ddl {
		if _, err := p.Execute(q); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 30; i++ {
		if _, err := p.Execute("INSERT INTO ledger (acct, amount, memo) VALUES (?, ?, ?)",
			sqldb.Int(int64(i%3)), sqldb.Int(int64(i*10)), sqldb.Text(fmt.Sprintf("memo %d", i))); err != nil {
			t.Fatal(err)
		}
	}
	res, err := p.Execute("SELECT SUM(amount) FROM ledger")
	if err != nil {
		t.Fatal(err)
	}
	want := int64(0)
	for i := 0; i < 30; i++ {
		want += int64(i * 10)
	}
	if res.Rows[0][0].I != want {
		t.Fatalf("sum = %v, want %d", res.Rows[0][0], want)
	}

	// Increment then compare: resync path under a plan.
	if _, err := p.Execute("UPDATE ledger SET amount = amount + 1000 WHERE acct = 1"); err != nil {
		t.Fatal(err)
	}
	res, err = p.Execute("SELECT COUNT(*) FROM ledger WHERE acct = 1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 10 {
		t.Fatalf("count = %v", res.Rows[0][0])
	}
	res, err = p.Execute("SELECT SUM(amount) FROM ledger")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != want+10*1000 {
		t.Fatalf("sum after increments = %v", res.Rows[0][0])
	}
}

// TestDeferredOnionsEndToEnd follows one table through the onion lifecycle
// across a restart, from outside the proxy package: what a curious DBA can
// count at the server (non-NULL cells), what Report says, and the answers.
// With no plan a load stores rid, Eq and IV per value and nothing else; the
// first SUM adds exactly one ciphertext per row, the first range query one
// more, and a restarted proxy remembers both.
func TestDeferredOnionsEndToEnd(t *testing.T) {
	dir := t.TempDir()
	open := func() (*sqldb.DB, *proxy.Proxy) {
		db, err := sqldb.Open(dir, sqldb.DurabilityOptions{NoFsync: true})
		if err != nil {
			t.Fatal(err)
		}
		p, err := proxy.New(db, proxy.Options{HOMBits: 256, DataDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		return db, p
	}
	cells := func(db *sqldb.DB) (n int) {
		for _, name := range db.TableNames() {
			res, err := db.ExecSQL("SELECT * FROM " + name)
			if err != nil {
				t.Fatal(err)
			}
			for _, row := range res.Rows {
				for _, v := range row {
					if !v.IsNull() {
						n++
					}
				}
			}
		}
		return n
	}
	report := func(p *proxy.Proxy) string {
		var sb strings.Builder
		for _, r := range p.Report() {
			fmt.Fprintf(&sb, "%s %v deferred %v; ", r.Column, r.Present, r.Deferred)
		}
		return sb.String()
	}
	exec := func(p *proxy.Proxy, sql string) *sqldb.Result {
		t.Helper()
		res, err := p.Execute(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return res
	}

	db, p := open()
	exec(p, "CREATE TABLE ledger (acct INT PRIMARY KEY, amount INT, memo TEXT)")
	const rows = 200
	var sb strings.Builder
	wantSum := int64(0)
	for i := 0; i < rows; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d, 'memo %d')", i, i*10, i)
		wantSum += int64(i * 10)
	}
	exec(p, "INSERT INTO ledger (acct, amount, memo) VALUES "+sb.String())
	if got, want := cells(db), rows*(1+3+3); got != want {
		t.Fatalf("after the load the server holds %d non-NULL cells, want %d (rid, three Eq, three IV a row)", got, want)
	}
	if got, want := report(p), "acct [Eq] deferred [JAdj Ord Add]; amount [Eq] deferred [JAdj Ord Add]; memo [Eq] deferred [JAdj Ord Search]; "; got != want {
		t.Fatalf("report after the load:\n%s\nwant\n%s", got, want)
	}

	if got := exec(p, "SELECT SUM(amount) FROM ledger").Rows[0][0].I; got != wantSum {
		t.Fatalf("first SUM = %d, want %d", got, wantSum)
	}
	if got, want := cells(db), rows*(1+3+3+1); got != want {
		t.Fatalf("after the first SUM the server holds %d non-NULL cells, want %d", got, want)
	}
	if n := len(exec(p, "SELECT acct FROM ledger WHERE amount BETWEEN 100 AND 290").Rows); n != 20 {
		t.Fatalf("first range query returned %d rows, want 20", n)
	}
	exec(p, "INSERT INTO ledger (acct, amount, memo) VALUES (1000, 5, 'late')")
	wantCells := (rows + 1) * (1 + 3 + 3 + 2)
	if got := cells(db); got != wantCells {
		t.Fatalf("after SUM, range and one more row the server holds %d non-NULL cells, want %d", got, wantCells)
	}
	wantReport := "acct [Eq] deferred [JAdj Ord Add]; amount [Eq Ord Add] deferred [JAdj]; memo [Eq] deferred [JAdj Ord Search]; "
	if got := report(p); got != wantReport {
		t.Fatalf("report after SUM and range:\n%s\nwant\n%s", got, wantReport)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db, p = open()
	defer db.Close() //nolint:errcheck // test teardown
	if got := report(p); got != wantReport {
		t.Fatalf("report after the restart:\n%s\nwant\n%s", got, wantReport)
	}
	if got := exec(p, "SELECT SUM(amount) FROM ledger").Rows[0][0].I; got != wantSum+5 {
		t.Fatalf("SUM after the restart = %d, want %d", got, wantSum+5)
	}
	if n := len(exec(p, "SELECT acct FROM ledger WHERE amount < 100").Rows); n != 11 {
		t.Fatalf("range after the restart returned %d rows, want 11", n)
	}
	if st := p.Stats(); st.OnionAdjustments != 0 || cells(db) != wantCells {
		t.Fatalf("the restarted proxy adjusted %d onions and the server holds %d cells, want 0 and %d",
			st.OnionAdjustments, cells(db), wantCells)
	}
}

// TestThreatModel1EndToEnd verifies the §2.1 guarantee across the whole
// stack: a curious DBA (full read access to the DBMS) learns no plaintext
// and no schema names even while the application actively queries.
func TestThreatModel1EndToEnd(t *testing.T) {
	server := sqldb.New()
	p, err := proxy.New(server, proxy.Options{HOMBits: 256})
	if err != nil {
		t.Fatal(err)
	}
	secrets := []string{"diagnosis-hypertension", "ssn-123-45-6789", "patients", "diagnosis"}
	if _, err := p.Execute("CREATE TABLE patients (pid INT, diagnosis TEXT, ssn TEXT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Execute("INSERT INTO patients (pid, diagnosis, ssn) VALUES (1, 'diagnosis-hypertension', 'ssn-123-45-6789')"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Execute("SELECT diagnosis FROM patients WHERE pid = 1"); err != nil {
		t.Fatal(err)
	}

	// The DBA's view: every table, every column name, every byte.
	for _, tn := range server.TableNames() {
		res, err := server.ExecSQL("SELECT * FROM " + tn)
		if err != nil {
			t.Fatal(err)
		}
		view := tn + " " + strings.Join(res.Columns, " ")
		for _, row := range res.Rows {
			for _, v := range row {
				view += " " + v.String()
			}
		}
		for _, s := range secrets {
			if strings.Contains(view, s) {
				t.Fatalf("DBA view leaks %q", s)
			}
		}
	}
}

// TestThreatModel2EndToEnd verifies §2.2 end to end: with every server
// compromised after all users log out, nothing decrypts.
func TestThreatModel2EndToEnd(t *testing.T) {
	server := sqldb.New()
	p, err := proxy.New(server, proxy.Options{HOMBits: 256})
	if err != nil {
		t.Fatal(err)
	}
	m, err := mp.New(p)
	if err != nil {
		t.Fatal(err)
	}
	script := []string{
		"PRINCTYPE physical_user EXTERNAL",
		"PRINCTYPE acct",
		`CREATE TABLE notes (owner INT PLAIN, note TEXT ENC FOR (owner acct))`,
		`CREATE TABLE owners (oid INT PLAIN, uname TEXT, (uname physical_user) SPEAKS FOR (oid acct))`,
	}
	for _, q := range script {
		if _, err := m.Execute(q); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Execute("INSERT INTO cryptdb_active (username, password) VALUES ('u1', 'pw1')"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Execute("INSERT INTO owners (oid, uname) VALUES (1, 'u1')"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Execute("INSERT INTO notes (owner, note) VALUES (1, 'the secret note')"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Execute("DELETE FROM cryptdb_active WHERE username = 'u1'"); err != nil {
		t.Fatal(err)
	}

	// Adversary holds the proxy object AND the whole DBMS.
	if _, err := m.Execute("SELECT note FROM notes WHERE owner = 1"); err == nil {
		t.Fatal("logged-out user's note decrypted")
	}
	for _, tn := range server.TableNames() {
		res, err := server.ExecSQL("SELECT * FROM " + tn)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range res.Rows {
			for _, v := range row {
				if strings.Contains(v.String(), "the secret note") ||
					strings.Contains(v.String(), "pw1") {
					t.Fatalf("server state leaks secrets: %v", v)
				}
			}
		}
	}
}

// TestOPERangeIndexEquivalence proves the tentpole end to end: a
// proxy-issued range workload over an OPE column returns identical rows
// whether or not the server holds the ordered index, and the indexed server
// actually answers through index range scans, index-ordered LIMIT walks and
// index-endpoint MIN/MAX rather than full scans.
func TestOPERangeIndexEquivalence(t *testing.T) {
	// Keep only the onions this workload needs so the 2k-row load skips
	// Paillier (§3.5.2 "discard onions that are not needed").
	plan := proxy.OnionPlan{
		"events.ts":  {onion.Eq, onion.Ord},
		"events.val": {onion.Eq},
	}
	newProxy := func(indexed bool) *proxy.Proxy {
		p, err := proxy.New(sqldb.New(), proxy.Options{HOMBits: 256, Plan: plan})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Execute("CREATE TABLE events (ts INT, val INT)"); err != nil {
			t.Fatal(err)
		}
		if indexed {
			if _, err := p.Execute("CREATE INDEX events_ts ON events (ts)"); err != nil {
				t.Fatal(err)
			}
		}
		return p
	}
	indexed, scan := newProxy(true), newProxy(false)

	const rows = 2000
	load := func(p *proxy.Proxy) {
		t.Helper()
		for base := 0; base < rows; base += 200 {
			sql := "INSERT INTO events (ts, val) VALUES "
			for i := 0; i < 200; i++ {
				if i > 0 {
					sql += ", "
				}
				k := base + i
				ts := fmt.Sprintf("%d", int64(uint32(k)*2654435761%100000))
				if k%97 == 0 {
					ts = "NULL" // NULLs stay unencrypted and outside ranges
				}
				sql += fmt.Sprintf("(%s, %d)", ts, k)
			}
			if _, err := p.Execute(sql); err != nil {
				t.Fatal(err)
			}
		}
	}
	load(indexed)
	load(scan)

	rowSet := func(res *sqldb.Result) map[string]int {
		out := make(map[string]int, len(res.Rows))
		for _, row := range res.Rows {
			key := ""
			for _, v := range row {
				key += v.Key() + "\x1f"
			}
			out[key]++
		}
		return out
	}
	compare := func(sql string, ordered bool, params ...sqldb.Value) {
		t.Helper()
		ri, err := indexed.Execute(sql, params...)
		if err != nil {
			t.Fatalf("indexed %s: %v", sql, err)
		}
		rs, err := scan.Execute(sql, params...)
		if err != nil {
			t.Fatalf("scan %s: %v", sql, err)
		}
		if len(ri.Rows) != len(rs.Rows) {
			t.Fatalf("%s: %d vs %d rows", sql, len(ri.Rows), len(rs.Rows))
		}
		a, b := rowSet(ri), rowSet(rs)
		for k, n := range a {
			if b[k] != n {
				t.Fatalf("%s: result sets differ", sql)
			}
		}
		if ordered {
			for i := range ri.Rows {
				x, y := ri.Rows[i][0], rs.Rows[i][0]
				if x.IsNull() != y.IsNull() || (!x.IsNull() && !x.Equal(y)) {
					t.Fatalf("%s: order differs at %d: %v vs %v", sql, i, x, y)
				}
			}
		}
	}

	for _, band := range []int64{0, 10000, 50000, 99000} {
		compare("SELECT val FROM events WHERE ts >= ? AND ts < ?", false,
			sqldb.Int(band), sqldb.Int(band+2500))
		compare("SELECT val FROM events WHERE ts BETWEEN ? AND ?", false,
			sqldb.Int(band), sqldb.Int(band+999))
	}
	compare("SELECT ts, val FROM events WHERE ts > ? ORDER BY ts LIMIT 10", true, sqldb.Int(30000))
	compare("SELECT ts, val FROM events WHERE ts < ? ORDER BY ts DESC LIMIT 7", true, sqldb.Int(80000))
	compare("SELECT MIN(ts) FROM events", false)
	compare("SELECT MAX(ts) FROM events", false)

	// The indexed server must have used its ordered index; the plain one
	// cannot have.
	pci := indexed.DB().Stats().Plan
	if pci.RangeScans == 0 || pci.OrderedScans == 0 || pci.MinMaxIndex == 0 {
		t.Fatalf("indexed server did not use ordered-index paths: %+v", pci)
	}
	pcs := scan.DB().Stats().Plan
	if pcs.RangeScans != 0 || pcs.OrderedScans != 0 || pcs.MinMaxIndex != 0 {
		t.Fatalf("unindexed server claims index use: %+v", pcs)
	}
}
