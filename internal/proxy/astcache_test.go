package proxy

import (
	"fmt"
	"testing"

	"repro/internal/sqldb"
	"repro/internal/sqlparser"
)

func TestASTCacheLRU(t *testing.T) {
	c := newASTCache(2)
	stA := mustParseSQL(t, "SELECT 1")
	stB := mustParseSQL(t, "SELECT 2")
	stC := mustParseSQL(t, "SELECT 3")
	c.put("a", stA)
	c.put("b", stB)
	if _, ok := c.get("a"); !ok {
		t.Fatal("a evicted too early")
	}
	c.put("c", stC) // evicts b (least recently used after the get of a)
	if _, ok := c.get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("a lost")
	}
	if _, ok := c.get("c"); !ok {
		t.Fatal("c lost")
	}
	hits, misses := c.counters()
	if hits != 3 || misses != 1 {
		t.Fatalf("counters: %d hits, %d misses", hits, misses)
	}
}

func mustParseSQL(t *testing.T, sql string) sqlparser.Statement {
	t.Helper()
	st, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestExecuteUsesASTCache(t *testing.T) {
	p, err := New(sqldb.New(), Options{HOMBits: 256})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Execute("CREATE TABLE kv (k INT, v INT)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := p.Execute("INSERT INTO kv (k, v) VALUES (?, ?)",
			sqldb.Int(int64(i)), sqldb.Int(int64(i*i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		res, err := p.Execute("SELECT v FROM kv WHERE k = ?", sqldb.Int(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].I != int64(i*i) {
			t.Fatalf("k=%d: %v", i, res.Rows)
		}
	}
	st := p.Stats()
	// 1 CREATE + 5 identical INSERTs + 5 identical SELECTs: the repeated
	// texts must hit the cache after their first parse.
	if st.ASTCacheHits < 8 {
		t.Fatalf("expected cached parses, got %+v", st)
	}
	if st.ASTCacheMisses != 3 {
		t.Fatalf("expected 3 distinct texts, got %+v", st)
	}
}

func TestASTCacheConcurrentReuse(t *testing.T) {
	p, err := New(sqldb.New(), Options{HOMBits: 256})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Execute("CREATE TABLE c (k INT, v INT)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := p.Execute("INSERT INTO c (k, v) VALUES (?, ?)",
			sqldb.Int(int64(i)), sqldb.Int(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the layer adjustments so concurrent queries share one AST on
	// the read-locked fast path.
	if _, err := p.Execute("SELECT v FROM c WHERE k = ?", sqldb.Int(1)); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 16)
	for g := 0; g < 16; g++ {
		go func(g int) {
			for i := 0; i < 50; i++ {
				res, err := p.Execute("SELECT v FROM c WHERE k = ?", sqldb.Int(int64(i%8)))
				if err == nil && (len(res.Rows) != 1 || res.Rows[0][0].I != int64(i%8)) {
					err = fmt.Errorf("bad result %v", res.Rows)
				}
				if err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 16; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
