package proxy

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/sqldb"
)

// TestConcurrentQueriesDuringAdjustment hammers the proxy from many
// goroutines while onion adjustments race with steady-state queries; every
// result must still be exact. Run with -race in CI.
func TestConcurrentQueriesDuringAdjustment(t *testing.T) {
	p := newTestProxy(t)
	mustExec(t, p, "CREATE TABLE acct (id INT PRIMARY KEY, owner TEXT, bal INT)")
	const rows = 40
	for i := 0; i < rows; i++ {
		mustExec(t, p, "INSERT INTO acct (id, owner, bal) VALUES (?, ?, ?)",
			sqldb.Int(int64(i)), sqldb.Text(fmt.Sprintf("owner-%d", i%5)), sqldb.Int(int64(i*100)))
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				switch (g + i) % 4 {
				case 0: // equality (forces DET adjustment on first use)
					res, err := p.Execute("SELECT bal FROM acct WHERE id = ?", sqldb.Int(int64(i%rows)))
					if err != nil {
						errs <- err
						return
					}
					if len(res.Rows) != 1 || res.Rows[0][0].I != int64((i%rows)*100) {
						errs <- fmt.Errorf("bad equality result: %v", res.Rows)
						return
					}
				case 1: // range (forces OPE adjustment)
					if _, err := p.Execute("SELECT id FROM acct WHERE bal > ?", sqldb.Int(2000)); err != nil {
						errs <- err
						return
					}
				case 2: // aggregation over HOM
					res, err := p.Execute("SELECT COUNT(*) FROM acct WHERE owner = ?", sqldb.Text("owner-1"))
					if err != nil {
						errs <- err
						return
					}
					if res.Rows[0][0].I != rows/5 {
						errs <- fmt.Errorf("bad count: %v", res.Rows[0][0])
						return
					}
				case 3: // projection only
					if _, err := p.Execute("SELECT owner FROM acct WHERE id = ?", sqldb.Int(int64(i%rows))); err != nil {
						errs <- err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Global invariant after the storm.
	res := mustExec(t, p, "SELECT SUM(bal) FROM acct")
	want := int64(0)
	for i := 0; i < rows; i++ {
		want += int64(i * 100)
	}
	if res.Rows[0][0].I != want {
		t.Fatalf("sum = %v, want %d", res.Rows[0][0], want)
	}
}

// TestConcurrentBulkInsertSelect drives many goroutines issuing multi-row
// INSERTs through the batched, parallel pipeline while others SELECT over
// the same table (forcing DET/OPE adjustments mid-load); counts and sums
// must come out exact. Run with -race in CI.
func TestConcurrentBulkInsertSelect(t *testing.T) {
	db := sqldb.New()
	p, err := New(db, Options{HOMBits: 256, BatchWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, p, "CREATE TABLE bulk (k INT, grp TEXT, val INT)")

	const (
		writers     = 6
		stmtsPerGor = 5
		rowsPerStmt = 12
		totalRows   = writers * stmtsPerGor * rowsPerStmt
	)
	buildInsert := func(base int) string {
		var sb strings.Builder
		sb.WriteString("INSERT INTO bulk (k, grp, val) VALUES ")
		for r := 0; r < rowsPerStmt; r++ {
			if r > 0 {
				sb.WriteString(", ")
			}
			k := base + r
			fmt.Fprintf(&sb, "(%d, 'g%d', %d)", k, k%4, k*3)
		}
		return sb.String()
	}

	var wg sync.WaitGroup
	errs := make(chan error, writers+4)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for s := 0; s < stmtsPerGor; s++ {
				base := (g*stmtsPerGor + s) * rowsPerStmt
				if _, err := p.Execute(buildInsert(base)); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				switch (g + i) % 3 {
				case 0:
					if _, err := p.Execute("SELECT COUNT(*) FROM bulk"); err != nil {
						errs <- err
						return
					}
				case 1: // forces OPE adjustment concurrently with bulk loads
					if _, err := p.Execute("SELECT k FROM bulk WHERE val > ?", sqldb.Int(100)); err != nil {
						errs <- err
						return
					}
				case 2: // forces DET adjustment
					if _, err := p.Execute("SELECT val FROM bulk WHERE grp = ?", sqldb.Text("g1")); err != nil {
						errs <- err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	res := mustExec(t, p, "SELECT COUNT(*) FROM bulk")
	if res.Rows[0][0].I != totalRows {
		t.Fatalf("count = %v, want %d", res.Rows[0][0], totalRows)
	}
	res = mustExec(t, p, "SELECT SUM(val) FROM bulk")
	want := int64(0)
	for k := 0; k < totalRows; k++ {
		want += int64(k * 3)
	}
	if res.Rows[0][0].I != want {
		t.Fatalf("sum = %v, want %d", res.Rows[0][0], want)
	}
	// Every k must be present exactly once, in decryptable form.
	res = mustExec(t, p, "SELECT k FROM bulk ORDER BY k")
	if len(res.Rows) != totalRows {
		t.Fatalf("rows = %d, want %d", len(res.Rows), totalRows)
	}
	for i, row := range res.Rows {
		if row[0].I != int64(i) {
			t.Fatalf("row %d: k = %v", i, row[0])
		}
	}
}

// TestConcurrentInserts checks rid allocation and index maintenance under
// parallel writers.
func TestConcurrentInserts(t *testing.T) {
	p := newTestProxy(t)
	mustExec(t, p, "CREATE TABLE log (k INT, msg TEXT)")
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if _, err := p.Execute("INSERT INTO log (k, msg) VALUES (?, ?)",
					sqldb.Int(int64(g*1000+i)), sqldb.Text("entry")); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	res := mustExec(t, p, "SELECT COUNT(*) FROM log")
	if res.Rows[0][0].I != 200 {
		t.Fatalf("count = %v", res.Rows[0][0])
	}
}

// TestConcurrentJoinsOverAdjustedGroup runs joins from two sessions over a
// join group that is already adjusted, so both stay on the read-locked
// steady-state path where adjNeeded looks up the columns' group roots. That
// lookup must not write: orders.uid is a non-root member of the group, and
// a path-compressing find stores to its joinGroup from both sessions at
// once. Run with -race.
func TestConcurrentJoinsOverAdjustedGroup(t *testing.T) {
	p := newTestProxy(t)
	mustExec(t, p, "CREATE TABLE users (id INT PRIMARY KEY, name TEXT)")
	mustExec(t, p, "CREATE TABLE orders (oid INT PRIMARY KEY, uid INT)")
	const users, orders = 6, 18
	for i := 0; i < users; i++ {
		mustExec(t, p, "INSERT INTO users (id, name) VALUES (?, ?)", sqldb.Int(int64(i)), sqldb.Text(fmt.Sprintf("u%d", i)))
	}
	for i := 0; i < orders; i++ {
		mustExec(t, p, "INSERT INTO orders (oid, uid) VALUES (?, ?)", sqldb.Int(int64(i)), sqldb.Int(int64(i%users)))
	}
	const join = "SELECT users.name, orders.oid FROM users, orders WHERE users.id = orders.uid"
	mustExec(t, p, join) // adjusts both JAdj onions and merges the groups
	before := p.Stats().OnionAdjustments

	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := p.NewSession()
			defer s.Close()
			for i := 0; i < 20; i++ {
				res, err := s.Execute(join)
				if err != nil {
					t.Error(err)
					return
				}
				if len(res.Rows) != orders {
					t.Errorf("join returned %d rows, want %d", len(res.Rows), orders)
					return
				}
			}
		}()
	}
	wg.Wait()
	if after := p.Stats().OnionAdjustments; after != before {
		t.Fatalf("steady-state joins adjusted onions: %d -> %d", before, after)
	}
}
