package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/crypto/feistel"
	"repro/internal/crypto/hom"
	"repro/internal/crypto/joinadj"
	"repro/internal/crypto/ope"
	"repro/internal/crypto/rnd"
	"repro/internal/crypto/search"
	"repro/internal/onion"
	"repro/internal/proxy"
	"repro/internal/sqldb"
	"repro/internal/sqlparser"
	"repro/internal/strawman"
	"repro/internal/workload"
)

// timeOp measures the average latency of fn over n runs.
func timeOp(n int, fn func() error) (time.Duration, error) {
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := fn(); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / time.Duration(n), nil
}

// fig13 reproduces the cryptographic microbenchmarks (Figure 13).
func fig13() error {
	fmt.Println("crypto scheme microbenchmarks (Figure 13); paper values on the right")
	fmt.Printf("%-22s %12s %12s %14s   %s\n", "scheme", "encrypt", "decrypt", "special op", "paper (enc/dec/op)")

	key := []byte("bench-key")

	// 64-bit integer PRP (the paper's Blowfish slot).
	fc := feistel.New(key)
	encPRP, _ := timeOp(200000, func() error { fc.Encrypt(12345); return nil })
	decPRP, _ := timeOp(200000, func() error { fc.Decrypt(12345); return nil })
	fmt.Printf("%-22s %12v %12v %14s   %s\n", "64-bit PRP (1 int)", encPRP, decPRP, "-", "0.0001 / 0.0001 ms (Blowfish)")

	// AES-CBC over 1 KB (RND).
	buf := make([]byte, 1024)
	iv, err := rnd.NewIV()
	if err != nil {
		return err
	}
	var ct []byte
	encCBC, _ := timeOp(20000, func() error {
		var err error
		ct, err = rnd.Bytes(key, iv, buf)
		return err
	})
	decCBC, _ := timeOp(20000, func() error {
		_, err := rnd.DecryptBytes(key, iv, ct)
		return err
	})
	fmt.Printf("%-22s %12v %12v %14s   %s\n", "AES-CBC (1 KB)", encCBC, decCBC, "-", "0.008 / 0.007 ms")

	// OPE over one 32-bit integer, fresh values (cold cache) to match
	// the paper's per-encryption cost.
	opeC := ope.New(key)
	var i uint64
	encOPE, _ := timeOp(300, func() error {
		i += 7919
		_, err := opeC.Encrypt(i % (1 << 32))
		return err
	})
	var last uint64
	last, _ = opeC.Encrypt(999)
	decOPE, _ := timeOp(300, func() error {
		_, err := opeC.Decrypt(last)
		return err
	})
	fmt.Printf("%-22s %12v %12v %14s   %s\n", "OPE (1 int)", encOPE, decOPE, "compare: 0", "9.0 / 9.0 ms, compare 0")

	// SEARCH over one word.
	sc := search.New(key)
	encS, _ := timeOp(20000, func() error {
		_, err := sc.EncryptText("confidential")
		return err
	})
	// The paper's match cost is per stored word. The server builds one
	// Matcher per LIKE and scans every row with it, so time a scan of a
	// 12-word blob (the analytic workload's shape) and divide.
	blob, err := sc.EncryptText("w01 w02 w03 w04 w05 w06 w07 w08 w09 w10 w11 confidential")
	if err != nil {
		return err
	}
	m := search.NewMatcher(sc.TokenFor("confidential"))
	matchS, _ := timeOp(20000, func() error { m.Match(blob); return nil })
	fmt.Printf("%-22s %12v %12s %14s   %s\n", "SEARCH (1 word)", encS, "-", fmt.Sprintf("match: %v", matchS/12), "0.01 / 0.004 ms, match 0.001")

	// HOM (Paillier, 1024-bit n -> 2048-bit ciphertexts).
	hk, err := hom.GenerateKey(hom.DefaultBits)
	if err != nil {
		return err
	}
	if _, err := hk.EncryptInt64(0); err != nil { // builds the key's fixed-base tables, once
		return err
	}
	encHOMCold, _ := timeOp(200, func() error {
		_, err := hk.EncryptInt64(42)
		return err
	})
	if err := hk.Precompute(120); err != nil {
		return err
	}
	encHOMWarm, _ := timeOp(100, func() error {
		_, err := hk.EncryptInt64(42)
		return err
	})
	c1, _ := hk.EncryptInt64(1)
	c2, _ := hk.EncryptInt64(2)
	decHOM, _ := timeOp(200, func() error {
		_, err := hk.DecryptInt64(c1)
		return err
	})
	addHOM, _ := timeOp(5000, func() error { hk.Add(c1, c2); return nil })
	fmt.Printf("%-22s %12v %12v %14s   %s\n", "HOM (1 int)", encHOMCold, decHOM,
		fmt.Sprintf("add: %v", addHOM), "9.7 / 0.7 ms, add 0.005")
	fmt.Printf("%-22s %12v %12s %14s   %s\n", "HOM (pooled r^n)", encHOMWarm, "-", "-", "(§3.5.2 precompute path)")
	// The same key without its factors: r^n by one full exponentiation, as
	// the paper's proxy (and any holder of the public key alone) computes it.
	hp, hq, _ := hk.Primes()
	textbook, err := hom.KeyFromPrimes(hp, hq)
	if err != nil {
		return err
	}
	textbook.StripFactors()
	encHOMText, _ := timeOp(20, func() error {
		_, err := textbook.EncryptInt64(42)
		return err
	})
	fmt.Printf("%-22s %12v %12s %14s   %s\n", "HOM (textbook r^n)", encHOMText, "-", "-", "(no factors: StripFactors)")

	// JOIN-ADJ.
	jk := joinadj.DeriveKey([]byte("col-a"))
	jk2 := joinadj.DeriveKey([]byte("col-b"))
	k0 := []byte("k0")
	var jv []byte
	encJ, _ := timeOp(2000, func() error { jv = jk.Compute(k0, []byte("val")); return nil })
	delta, err := jk2.Delta(jk)
	if err != nil {
		return err
	}
	adjJ, _ := timeOp(2000, func() error {
		_, err := joinadj.Adjust(jv, delta)
		return err
	})
	fmt.Printf("%-22s %12v %12s %14s   %s\n", "JOIN-ADJ (1 int)", encJ, "-",
		fmt.Sprintf("adjust: %v", adjJ), "0.52 ms, adjust 0.56")
	return nil
}

// figAblation quantifies the paper's design-choice optimizations.
func figAblation() error {
	fmt.Println("ablations of the paper's design choices")

	// 1. OPE node caching (§3.1: 25 ms -> 7 ms in the paper's terms).
	key := []byte("ablation")
	cached := ope.New(key)
	uncached := ope.New(key)
	uncached.DisableCache()
	vals := make([]uint64, 60)
	for i := range vals {
		vals[i] = uint64(i)*104729 + 17
	}
	warm, _ := cached.Encrypt(1) // prime shared prefixes
	_ = warm
	tCached, err := timeOp(len(vals), func() error {
		v := vals[0]
		vals = append(vals[1:], v)
		_, err := cached.Encrypt(v)
		return err
	})
	if err != nil {
		return err
	}
	vals2 := make([]uint64, 30)
	for i := range vals2 {
		vals2[i] = uint64(i)*104729 + 17
	}
	tUncached, err := timeOp(len(vals2), func() error {
		v := vals2[0]
		vals2 = append(vals2[1:], v)
		_, err := uncached.Encrypt(v)
		return err
	})
	if err != nil {
		return err
	}
	fmt.Printf("OPE encryption:       with tree cache %8v   without %8v   (%.1fx)\n",
		tCached, tUncached, float64(tUncached)/float64(tCached))
	fmt.Println("  paper: batch-tree optimization cut OPE from 25 ms to 7 ms per value")

	// 2. HOM r^n precompute (§3.5.2).
	hk, err := hom.GenerateKey(hom.DefaultBits)
	if err != nil {
		return err
	}
	if _, err := hk.EncryptInt64(0); err != nil { // builds the key's fixed-base tables, once
		return err
	}
	tCold, _ := timeOp(150, func() error {
		_, err := hk.EncryptInt64(7)
		return err
	})
	if err := hk.Precompute(80); err != nil {
		return err
	}
	tWarm, _ := timeOp(60, func() error {
		_, err := hk.EncryptInt64(7)
		return err
	})
	fmt.Printf("HOM encryption:       with r^n pool   %8v   without %8v   (%.0fx)\n",
		tWarm, tCold, float64(tCold)/float64(tWarm))

	// 3. DET-indexed equality vs strawman full scan — why Figure 11's
	// strawman loses on every lookup class.
	db := sqldb.New()
	p, err := proxy.New(db, proxy.Options{HOMBits: 512})
	if err != nil {
		return err
	}
	if _, err := p.Execute("CREATE TABLE kv (k INT PRIMARY KEY, v TEXT)"); err != nil {
		return err
	}
	if _, err := p.Execute("CREATE INDEX kvk ON kv (k)"); err != nil {
		return err
	}
	const rows = 3000
	for i := 0; i < rows; i++ {
		if _, err := p.Execute("INSERT INTO kv (k, v) VALUES (?, ?)",
			sqldb.Int(int64(i)), sqldb.Text("value")); err != nil {
			return err
		}
	}
	if _, err := p.Execute("SELECT v FROM kv WHERE k = ?", sqldb.Int(1)); err != nil {
		return err
	}
	tIndexed, err := timeOp(500, func() error {
		_, err := p.Execute("SELECT v FROM kv WHERE k = ?", sqldb.Int(1234))
		return err
	})
	if err != nil {
		return err
	}

	smDB := sqldb.New()
	sm, err := newStrawmanKV(smDB, rows)
	if err != nil {
		return err
	}
	tScan, err := timeOp(20, func() error {
		_, err := sm.Execute("SELECT v FROM kv WHERE k = ?", sqldb.Int(1234))
		return err
	})
	if err != nil {
		return err
	}
	fmt.Printf("equality lookup:      DET index       %8v   strawman scan %8v  (%.0fx)\n",
		tIndexed, tScan, float64(tScan)/float64(tIndexed))
	fmt.Printf("  (%d rows; the strawman UDF-decrypts every row on every lookup)\n", rows)
	return nil
}

// figBulkLoad reports multi-row INSERT throughput through the batched,
// parallel encryption pipeline (§3.1 "AVL binary search trees for batch
// encryption, e.g., database loads"): row-at-a-time statements, one
// multi-row statement on a single worker (sorted OPE batch), and the full
// worker pool.
func figBulkLoad() error {
	fmt.Println("bulk load: multi-row INSERT through the batched encryption pipeline (§3.1)")
	const rowsPerLoad, loads = 64, 8

	// Scattered keys, as in a real bulk load of non-sequential rows: this
	// is the case the sorted batch pass targets (sequential keys already
	// share tree prefixes in insertion order).
	scatter := func(k int) int64 { return int64(uint32(k) * 2654435761 % (1 << 31)) }
	insertSQL := func(base, n int) string {
		out := "INSERT INTO load (id, tag, qty) VALUES "
		for r := 0; r < n; r++ {
			if r > 0 {
				out += ", "
			}
			k := base + r
			out += fmt.Sprintf("(%d, 'tag-%d', %d)", scatter(k), k%13, scatter(k+1<<20))
		}
		return out
	}

	// The pipeline's subject is the per-row work of every onion, so the
	// arms list them all in a plan: present from the first row. With no
	// plan a load writes Eq alone (the last arm) and the others are
	// encrypted column-at-a-time on first use, through the same pool.
	allOnions := proxy.OnionPlan{
		"load.id":  onion.Onions(sqlparser.TypeInt),
		"load.tag": onion.Onions(sqlparser.TypeText),
		"load.qty": onion.Onions(sqlparser.TypeInt),
	}

	// One timed pass of an arm: a fresh proxy bulk-loads loads×rowsPerLoad
	// scattered rows. Returns the total wall time of the loads.
	runArm := func(workers int, multiRow bool, plan proxy.OnionPlan) (time.Duration, error) {
		p, err := proxy.New(sqldb.New(), proxy.Options{HOMBits: 512, BatchWorkers: workers, Plan: plan})
		if err != nil {
			return 0, err
		}
		if _, err := p.Execute("CREATE TABLE load (id INT, tag TEXT, qty INT)"); err != nil {
			return 0, err
		}
		// Fill the Paillier pool up front so the arms compare the
		// encryption pipeline, not r^n refills (§3.5.2). Both INT columns
		// (id, qty) carry an Add onion: two HOM encryptions per row.
		if err := p.HOMKey().Precompute(2*rowsPerLoad*loads + 16); err != nil {
			return 0, err
		}
		start := time.Now()
		for l := 0; l < loads; l++ {
			base := l * rowsPerLoad
			if multiRow {
				if _, err := p.Execute(insertSQL(base, rowsPerLoad)); err != nil {
					return 0, err
				}
				continue
			}
			for r := 0; r < rowsPerLoad; r++ {
				if _, err := p.Execute(insertSQL(base+r, 1)); err != nil {
					return 0, err
				}
			}
		}
		return time.Since(start), nil
	}

	arms := []struct {
		name     string
		workers  int
		multiRow bool
		plan     proxy.OnionPlan
	}{
		{"row-at-a-time (serial)", 1, false, allOnions},
		{"one statement, 1 worker (batched)", 1, true, allOnions},
		{fmt.Sprintf("worker pool (%d workers)", runtime.GOMAXPROCS(0)), 0, true, allOnions},
		{"worker pool, no plan (Eq only)", 0, true, nil},
	}
	// Alternate the arms over several rounds and keep each arm's best
	// pass: the minimum is robust against scheduler noise on shared boxes.
	best := make([]time.Duration, len(arms))
	const rounds = 5
	for round := 0; round < rounds; round++ {
		for i, a := range arms {
			el, err := runArm(a.workers, a.multiRow, a.plan)
			if err != nil {
				return err
			}
			if best[i] == 0 || el < best[i] {
				best[i] = el
			}
		}
	}
	for i, a := range arms {
		fmt.Printf("%-34s %9.0f rows/s   (best of %d: %v per %d-row load)\n",
			a.name, float64(rowsPerLoad*loads)/best[i].Seconds(), rounds, best[i]/loads, rowsPerLoad)
	}
	fmt.Println("  first three arms: every onion listed in a plan, so each row pays DET, JOIN-ADJ, OPE, HOM/SEARCH")
	fmt.Println("  batched: one sorted ope.EncryptBatch pass per column shares node-cache prefixes")
	fmt.Println("  pool:    remaining per-row onion work fans across BatchWorkers goroutines;")
	fmt.Println("           its gain over the batched arm scales with GOMAXPROCS (identical at 1 core)")
	fmt.Println("  no plan: the default; JAdj/Ord/Add/Search stay deferred until a query needs them")
	return nil
}

// newStrawmanKV builds the strawman side of the index ablation.
func newStrawmanKV(db *sqldb.DB, rows int) (workloadExecutor, error) {
	sm, err := strawman.New(db)
	if err != nil {
		return nil, err
	}
	if _, err := sm.Execute("CREATE TABLE kv (k INT, v TEXT)"); err != nil {
		return nil, err
	}
	if _, err := sm.Execute("CREATE INDEX kvk ON kv (k)"); err != nil {
		return nil, err
	}
	for i := 0; i < rows; i++ {
		if _, err := sm.Execute("INSERT INTO kv (k, v) VALUES (?, ?)",
			sqldb.Int(int64(i)), sqldb.Text("value")); err != nil {
			return nil, err
		}
	}
	return sm, nil
}

type workloadExecutor interface {
	Execute(sql string, params ...sqldb.Value) (*sqldb.Result, error)
}

// figRangeScan demonstrates the ordered-index tentpole (§3.3: range
// queries, ORDER BY/LIMIT and MIN/MAX execute on OPE ciphertexts through
// ordinary ordered indexes): first on the bare DBMS substrate at 100k rows,
// then end to end through the proxy over an encrypted OPE column.
func figRangeScan() error {
	fmt.Println("ordered indexes vs full scans (§3.3 range queries over OPE)")

	// 1. DBMS substrate: 100k rows, indexed vs unindexed, loaded through
	// the same shared fixture the go-test benchmarks use.
	const rows = 100_000
	build := func(indexed bool) (*sqldb.DB, error) {
		db := sqldb.New()
		return db, workload.LoadRangeTable(db, rows, indexed)
	}
	idx, err := build(true)
	if err != nil {
		return err
	}
	scan, err := build(false)
	if err != nil {
		return err
	}

	queries := []struct {
		name        string
		sql         string
		idxN, scanN int
	}{
		{"range (~100 rows)", "SELECT v FROM r WHERE k >= 1000000 AND k < 2048576", 2000, 10},
		{"ORDER BY LIMIT 10", "SELECT v FROM r WHERE k >= 500000 ORDER BY k LIMIT 10", 5000, 5},
		{"MIN/MAX", "SELECT MIN(k), MAX(k) FROM r", 20000, 10},
	}
	fmt.Printf("DBMS substrate, %d rows:\n", rows)
	for _, q := range queries {
		st, err := sqlparser.Parse(q.sql)
		if err != nil {
			return err
		}
		tIdx, err := timeOp(q.idxN, func() error { _, err := idx.Exec(st); return err })
		if err != nil {
			return err
		}
		tScan, err := timeOp(q.scanN, func() error { _, err := scan.Exec(st); return err })
		if err != nil {
			return err
		}
		fmt.Printf("  %-20s ordered index %10v   full scan %10v   (%.0fx)\n",
			q.name, tIdx, tScan, float64(tScan)/float64(tIdx))
	}
	pc := idx.PlanCounters()
	fmt.Printf("  planner: %d range scans, %d index-ordered walks, %d endpoint MIN/MAX, %d full scans\n",
		pc.RangeScans, pc.OrderedScans, pc.MinMaxIndex, pc.FullScans)

	// 2. End to end through the proxy: the Ord onion sits at OPE after the
	// first range query, the adjustment re-materializes the ordered index,
	// and identical encrypted range queries stop table-scanning.
	const encRows = 4000
	plan := proxy.OnionPlan{
		"events.ts":  {onion.Eq, onion.Ord},
		"events.val": {onion.Eq},
	}
	buildProxy := func(indexed bool) (*proxy.Proxy, error) {
		p, err := proxy.New(sqldb.New(), proxy.Options{HOMBits: 512, Plan: plan})
		if err != nil {
			return nil, err
		}
		if _, err := p.Execute("CREATE TABLE events (ts INT, val INT)"); err != nil {
			return nil, err
		}
		if indexed {
			if _, err := p.Execute("CREATE INDEX ets ON events (ts)"); err != nil {
				return nil, err
			}
		}
		for base := 0; base < encRows; base += 500 {
			sql := "INSERT INTO events (ts, val) VALUES "
			for i := 0; i < 500; i++ {
				if i > 0 {
					sql += ", "
				}
				k := base + i
				sql += fmt.Sprintf("(%d, %d)", uint32(k)*2654435761%1000000, k)
			}
			if _, err := p.Execute(sql); err != nil {
				return nil, err
			}
		}
		// First range query peels Ord to OPE and materializes the index.
		if _, err := p.Execute("SELECT val FROM events WHERE ts > 0 AND ts < 2"); err != nil {
			return nil, err
		}
		return p, nil
	}
	pIdx, err := buildProxy(true)
	if err != nil {
		return err
	}
	pScan, err := buildProxy(false)
	if err != nil {
		return err
	}
	encQ := "SELECT val FROM events WHERE ts >= 250000 AND ts < 260000"
	tIdx, err := timeOp(2000, func() error { _, err := pIdx.Execute(encQ); return err })
	if err != nil {
		return err
	}
	tScan, err := timeOp(50, func() error { _, err := pScan.Execute(encQ); return err })
	if err != nil {
		return err
	}
	fmt.Printf("proxy end to end, %d rows, encrypted OPE range query:\n", encRows)
	fmt.Printf("  %-20s with Ord index %9v   without %10v   (%.0fx)\n", "range (~40 rows)", tIdx, tScan, float64(tScan)/float64(tIdx))
	fmt.Println("  one CREATE INDEX yields the Eq hash index at DET and the Ord ordered index at OPE;")
	fmt.Println("  the ordered index is (re)built when onion adjustment peels RND off the Ord onion")
	return nil
}
