package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/proxy"
	"repro/internal/sqldb"
	"repro/internal/strawman"
	"repro/internal/workload"
	"repro/internal/workload/tpcc"
	"repro/internal/workload/trace"
)

var benchCfg = tpcc.Config{Warehouses: 1, Districts: 2, Customers: 30, Items: 60, Orders: 25, Seed: 1}

// tpccTrainingQueries produces one query per class for training (§3.5.2:
// "If the developer knows some of the queries ahead of time ... adjust
// onions to the correct layer a priori").
func tpccTrainingQueries() []proxy.TrainQuery {
	g := tpcc.NewGenerator(benchCfg)
	var out []proxy.TrainQuery
	for _, c := range tpcc.Classes() {
		sql, params := g.ForClass(c)
		out = append(out, proxy.TrainQuery{SQL: sql, Params: params})
	}
	return out
}

// tpccTraceApp converts the TPC-C workload into a trace.App for the
// security analysis (Figure 9's TPC-C row).
func tpccTraceApp() (trace.App, error) {
	app := trace.App{Name: "TPC-C", Schema: tpcc.Schema()}
	g := tpcc.NewGenerator(benchCfg)
	for _, c := range tpcc.Classes() {
		sql, params := g.ForClass(c)
		app.Queries = append(app.Queries, trace.Query{SQL: sql, Params: params})
	}
	return app, nil
}

// newTrainedCryptDB loads TPC-C behind a trained CryptDB proxy with warm
// caches, the steady-state configuration of §8.4.1.
func newTrainedCryptDB() (*proxy.Proxy, *sqldb.DB, error) {
	plan, err := proxy.TrainPlan(tpcc.Schema(), tpccTrainingQueries())
	if err != nil {
		return nil, nil, err
	}
	db := sqldb.New()
	p, err := proxy.New(db, proxy.Options{Plan: plan})
	if err != nil {
		return nil, nil, err
	}
	if err := tpcc.Load(p, benchCfg); err != nil {
		return nil, nil, err
	}
	// Refill the Paillier randomness pool off the critical path
	// (§3.5.2); the paper pre-computes 30,000 values.
	if err := p.HOMKey().Precompute(5000); err != nil {
		return nil, nil, err
	}
	// Trigger all onion adjustments once so measurements run in the
	// steady state.
	g := tpcc.NewGenerator(benchCfg)
	for _, c := range tpcc.Classes() {
		sql, params := g.ForClass(c)
		if _, err := p.Execute(sql, params...); err != nil {
			return nil, nil, err
		}
	}
	return p, db, nil
}

// fig10 measures TPC-C throughput as server cores vary (Figure 10).
func fig10() error {
	maxCores := runtime.GOMAXPROCS(0)
	coreSteps := []int{1, 2, 4, 8}
	fmt.Println("TPC-C throughput vs server cores (Figure 10)")
	fmt.Println("note: in this reproduction proxy and server share the machine, so the")
	fmt.Println("absolute CryptDB level is lower than the paper's 21-26% gap; the shape")
	fmt.Println("(both scale, then level off on lock contention) is the comparison point.")
	fmt.Printf("%6s %14s %14s %9s\n", "cores", "MySQL q/s", "CryptDB q/s", "ratio")

	for _, cores := range coreSteps {
		if cores > maxCores {
			break
		}
		prev := runtime.GOMAXPROCS(cores)

		plainDB := sqldb.New()
		plain := workload.PlainDB{DB: plainDB}
		if err := tpcc.Load(plain, benchCfg); err != nil {
			return err
		}
		plainTput, err := runClients(plain, cores*2, 4000)
		if err != nil {
			return err
		}

		p, _, err := newTrainedCryptDB()
		if err != nil {
			return err
		}
		encTput, err := runClients(p, cores*2, 2000)
		if err != nil {
			return err
		}

		runtime.GOMAXPROCS(prev)
		fmt.Printf("%6d %14.0f %14.0f %8.1f%%\n", cores, plainTput, encTput, 100*encTput/plainTput)
	}
	fmt.Println("paper: CryptDB throughput is 21-26% below MySQL at every core count")
	return nil
}

// runClients drives `clients` goroutines through the mix, `total` queries
// overall, returning queries/second.
func runClients(ex workload.Executor, clients, total int) (float64, error) {
	var remaining = int64(total)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			g := tpcc.NewGenerator(tpcc.Config{
				Warehouses: benchCfg.Warehouses, Districts: benchCfg.Districts,
				Customers: benchCfg.Customers, Items: benchCfg.Items,
				Orders: benchCfg.Orders, Seed: seed,
			})
			for atomic.AddInt64(&remaining, -1) >= 0 {
				_, sql, params := g.Next()
				if _, err := ex.Execute(sql, params...); err != nil {
					errs <- err
					return
				}
			}
		}(int64(c + 2))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return 0, err
	}
	return float64(total) / time.Since(start).Seconds(), nil
}

// fig11 measures per-query-class server throughput for MySQL, CryptDB and
// the strawman (Figure 11). Server-side time is what the paper plots (its
// proxy ran on a separate machine).
func fig11() error {
	fmt.Println("server throughput by query class (Figure 11), single core")

	plainDB := sqldb.New()
	plain := workload.PlainDB{DB: plainDB}
	if err := tpcc.Load(plain, benchCfg); err != nil {
		return err
	}
	p, encDB, err := newTrainedCryptDB()
	if err != nil {
		return err
	}
	smDB := sqldb.New()
	sm, err := strawman.New(smDB)
	if err != nil {
		return err
	}
	if err := tpcc.Load(sm, benchCfg); err != nil {
		return err
	}

	fmt.Printf("%-10s %14s %14s %14s %10s %10s\n",
		"class", "MySQL q/s", "CryptDB q/s", "Strawman q/s", "C/M", "S/M")
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	const n = 150
	for _, class := range tpcc.Classes() {
		mysqlT, err := classServerThroughput(plain, plainDB, class, n)
		if err != nil {
			return err
		}
		cryptT, err := classServerThroughput(p, encDB, class, n)
		if err != nil {
			return err
		}
		smT, err := classServerThroughput(sm, smDB, class, n)
		if err != nil {
			return err
		}
		fmt.Printf("%-10s %14.0f %14.0f %14.0f %9.2fx %9.2fx\n",
			class, mysqlT, cryptT, smT, cryptT/mysqlT, smT/mysqlT)
	}
	fmt.Println("paper: CryptDB pays most on Sum (2.0x less) and Upd.inc (1.6x less);")
	fmt.Println("the strawman is far slower on every class that scans (no usable indexes).")
	return nil
}

func classServerThroughput(ex workload.Executor, db *sqldb.DB, class tpcc.Class, n int) (float64, error) {
	g := tpcc.NewGenerator(benchCfg)
	// Warm any onion adjustment outside the measurement.
	sql, params := g.ForClass(class)
	if _, err := ex.Execute(sql, params...); err != nil {
		return 0, err
	}
	db.ResetBusyNanos()
	for i := 0; i < n; i++ {
		sql, params := g.ForClass(class)
		if _, err := ex.Execute(sql, params...); err != nil {
			return 0, err
		}
	}
	busy := db.BusyNanos()
	if busy == 0 {
		busy = 1
	}
	return float64(n) / (float64(busy) / 1e9), nil
}

// fig12 measures per-class server and proxy latency, with and without the
// ciphertext pre-computing/caching optimization (Figure 12).
func fig12() error {
	fmt.Println("per-query latency (Figure 12): server vs proxy, with/without precompute")

	withOpt, dbOpt, err := newTrainedCryptDB()
	if err != nil {
		return err
	}

	// Without the optimization: no HOM pool, no OPE cache.
	plan, err := proxy.TrainPlan(tpcc.Schema(), tpccTrainingQueries())
	if err != nil {
		return err
	}
	dbNo := sqldb.New()
	noOpt, err := proxy.New(dbNo, proxy.Options{Plan: plan, DisableOPECache: true})
	if err != nil {
		return err
	}
	if err := tpcc.Load(noOpt, benchCfg); err != nil {
		return err
	}
	gw := tpcc.NewGenerator(benchCfg)
	for _, c := range tpcc.Classes() {
		sql, params := gw.ForClass(c)
		if _, err := noOpt.Execute(sql, params...); err != nil {
			return err
		}
	}

	fmt.Printf("%-10s %12s %12s %12s\n", "class", "server", "proxy", "proxy*")
	const n = 60
	for _, class := range tpcc.Classes() {
		srv, prox, err := classLatency(withOpt, dbOpt, class, n)
		if err != nil {
			return err
		}
		_, proxNo, err := classLatency(noOpt, dbNo, class, n)
		if err != nil {
			return err
		}
		fmt.Printf("%-10s %10.3fms %10.3fms %10.3fms\n",
			class, ms(srv), ms(prox), ms(proxNo))
	}
	fmt.Println("(proxy* = without HOM pre-computation and OPE caching, §3.5.2;")
	fmt.Println(" paper: Insert 0.37 -> 16.3 ms, Upd.inc 0.30 -> 25.1 ms without them)")
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func classLatency(p *proxy.Proxy, db *sqldb.DB, class tpcc.Class, n int) (server, prox time.Duration, err error) {
	g := tpcc.NewGenerator(benchCfg)
	sql, params := g.ForClass(class)
	if _, err := p.Execute(sql, params...); err != nil {
		return 0, 0, err
	}
	db.ResetBusyNanos()
	start := time.Now()
	for i := 0; i < n; i++ {
		sql, params := g.ForClass(class)
		if _, err := p.Execute(sql, params...); err != nil {
			return 0, 0, err
		}
	}
	total := time.Since(start)
	busy := time.Duration(db.BusyNanos())
	return busy / time.Duration(n), (total - busy) / time.Duration(n), nil
}

// figStorage reproduces §8.4.3's storage accounting.
func figStorage() error {
	fmt.Println("ciphertext storage expansion (§8.4.3)")

	plainDB := sqldb.New()
	if err := tpcc.Load(workload.PlainDB{DB: plainDB}, benchCfg); err != nil {
		return err
	}

	// Trained (onions discarded per §3.5.2), as the paper's TPC-C runs: the
	// plan's onions are present from the first row.
	_, trainedDB, err := newTrainedCryptDB()
	if err != nil {
		return err
	}
	// No plan: every onion declared, only Eq written by the load; the query
	// set then materialises the onions it needs, whole columns at a time.
	defDB := sqldb.New()
	pd, err := proxy.New(defDB, proxy.Options{})
	if err != nil {
		return err
	}
	if err := tpcc.Load(pd, benchCfg); err != nil {
		return err
	}
	loaded := defDB.SizeBytes()
	g := tpcc.NewGenerator(benchCfg)
	for _, c := range tpcc.Classes() {
		sql, params := g.ForClass(c)
		if _, err := pd.Execute(sql, params...); err != nil {
			return err
		}
	}

	pb := float64(plainDB.SizeBytes())
	fmt.Printf("TPC-C plaintext:                          %10.0f bytes\n", pb)
	for _, row := range []struct {
		name  string
		bytes int
		note  string
	}{
		{"trained plan, after load + query set", trainedDB.SizeBytes(), "paper: 3.76x"},
		{"no plan, after load (Eq only)", loaded, ""},
		{"no plan, after the TPC-C query set", defDB.SizeBytes(), "same onions as the plan, plus a NULL per deferred cell"},
	} {
		fmt.Printf("TPC-C CryptDB, %-37s %10d bytes  (%.2fx)   %s\n", row.name+":", row.bytes, float64(row.bytes)/pb, row.note)
	}
	if err := figStorageForum(); err != nil {
		return err
	}
	return figStoragePaged()
}

// figAdjust reproduces §8.4.4: onion-layer removal runs at roughly AES
// speed, once per column for the lifetime of the system.
func figAdjust() error {
	fmt.Println("adjustable encryption: RND layer removal throughput (§8.4.4)")
	db := sqldb.New()
	p, err := proxy.New(db, proxy.Options{HOMBits: 512})
	if err != nil {
		return err
	}
	if _, err := p.Execute("CREATE TABLE t (a INT, payload TEXT)"); err != nil {
		return err
	}
	const rows = 2000
	payload := make([]byte, 256)
	for i := range payload {
		payload[i] = byte('a' + i%26)
	}
	for i := 0; i < rows; i++ {
		if _, err := p.Execute("INSERT INTO t (a, payload) VALUES (?, ?)",
			sqldb.Int(int64(i)), sqldb.Text(string(payload))); err != nil {
			return err
		}
	}
	// The first equality query on payload strips RND from the whole
	// column via the DECRYPT_RND UDF.
	start := time.Now()
	if _, err := p.Execute("SELECT a FROM t WHERE payload = 'x'"); err != nil {
		return err
	}
	dur := time.Since(start)
	mb := float64(rows*len(payload)) / (1 << 20)
	fmt.Printf("stripped RND from %d rows x %d bytes in %v: %.0f MB/s\n",
		rows, len(payload), dur.Round(time.Millisecond), mb/dur.Seconds())
	fmt.Println("paper: ~200 MB/s per core (AES speed); needed once per column ever")

	adjBefore := p.Stats().OnionAdjustments
	if _, err := p.Execute("SELECT a FROM t WHERE payload = 'y'"); err != nil {
		return err
	}
	if p.Stats().OnionAdjustments == adjBefore {
		fmt.Println("steady state confirmed: repeat queries perform no server-side decryption")
	}
	return nil
}
