package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sqldb"
	"repro/internal/workload"
	"repro/internal/workload/forum"
)

var forumCfg = forum.Config{Users: 10, Forums: 3, Posts: 20, Msgs: 10, Seed: 1}

// fig14 measures forum request throughput under the three configurations of
// Figure 14: direct DBMS, pass-through proxy, and CryptDB with annotated
// sensitive fields.
func fig14() error {
	fmt.Println("phpBB-style throughput, 10 parallel clients (Figure 14)")

	mysqlTput, err := forumThroughput(func() (workload.Executor, func(string, string) error, error) {
		return workload.PlainDB{DB: sqldb.New()}, nil, nil
	}, false)
	if err != nil {
		return err
	}
	proxyTput, err := forumThroughput(func() (workload.Executor, func(string, string) error, error) {
		return workload.Passthrough{DB: sqldb.New()}, nil, nil
	}, false)
	if err != nil {
		return err
	}
	cryptTput, err := forumThroughput(func() (workload.Executor, func(string, string) error, error) {
		m, _, err := mpForum()
		if err != nil {
			return nil, nil, err
		}
		return m, m.Login, nil
	}, true)
	if err != nil {
		return err
	}

	fmt.Printf("%-14s %14s %10s\n", "configuration", "requests/s", "vs MySQL")
	fmt.Printf("%-14s %14.0f %10s\n", "MySQL", mysqlTput, "-")
	fmt.Printf("%-14s %14.0f %9.1f%%\n", "MySQL+proxy", proxyTput, 100*(proxyTput-mysqlTput)/mysqlTput)
	fmt.Printf("%-14s %14.0f %9.1f%%\n", "CryptDB", cryptTput, 100*(cryptTput-mysqlTput)/mysqlTput)
	fmt.Println("paper: MySQL+proxy -8.3%, CryptDB -14.5% (half the loss is proxying itself)")
	fmt.Println("(CryptDB arm: no onion plan; the warm-up requests materialise the onions the forum's")
	fmt.Println(" queries use, every other onion stays deferred and costs a write nothing)")

	// The paper's requests spend most of their time in PHP rendering
	// (~50-240 ms each), so its -14.5% reflects a few ms of crypto per
	// request. Our simulator has no app-server work, which inflates the
	// relative drop; the absolute added cost is the comparable figure.
	addedMs := (1/cryptTput - 1/mysqlTput) * 1000
	fmt.Printf("absolute crypto+proxy cost: %.2f ms per request (paper: 7-18 ms per request)\n", addedMs)
	return nil
}

func forumThroughput(build func() (workload.Executor, func(string, string) error, error), annotated bool) (float64, error) {
	ex, login, err := build()
	if err != nil {
		return 0, err
	}
	cfg := forumCfg
	cfg.Annotated = annotated
	if err := forum.Load(ex, cfg, login); err != nil {
		return 0, err
	}
	// Warm up adjustments.
	warm := forum.NewSim(ex, cfg, login)
	for _, k := range forum.Kinds() {
		if _, err := warm.Request(k); err != nil {
			return 0, err
		}
	}

	const clients = 10
	const totalReqs = 600
	var remaining = int64(totalReqs)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			cc := cfg
			cc.Seed = seed
			sim := forum.NewSim(ex, cc, login)
			for atomic.AddInt64(&remaining, -1) >= 0 {
				if _, _, err := sim.Mix(); err != nil {
					errs <- err
					return
				}
			}
		}(int64(c + 11))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return 0, err
	}
	return float64(totalReqs) / time.Since(start).Seconds(), nil
}

// fig15 measures per-request latency for MySQL vs CryptDB (Figure 15).
func fig15() error {
	fmt.Println("phpBB-style request latency (Figure 15)")

	plain := workload.PlainDB{DB: sqldb.New()}
	if err := forum.Load(plain, forumCfg, nil); err != nil {
		return err
	}
	plainSim := forum.NewSim(plain, forumCfg, nil)

	m, _, err := mpForum()
	if err != nil {
		return err
	}
	cfg := forumCfg
	cfg.Annotated = true
	if err := forum.Load(m, cfg, m.Login); err != nil {
		return err
	}
	encSim := forum.NewSim(m, cfg, m.Login)
	for _, k := range forum.Kinds() {
		if _, err := encSim.Request(k); err != nil {
			return err
		}
	}

	paper := map[string][2]string{
		"Login":  {"60 ms", "67 ms"},
		"R post": {"50 ms", "60 ms"},
		"W post": {"133 ms", "151 ms"},
		"R msg":  {"61 ms", "73 ms"},
		"W msg":  {"237 ms", "251 ms"},
	}
	fmt.Printf("%-8s %12s %12s %10s   %s\n", "request", "MySQL", "CryptDB", "overhead", "paper (MySQL / CryptDB)")
	const n = 60
	for _, k := range forum.Kinds() {
		lp, err := requestLatency(plainSim, k, n)
		if err != nil {
			return err
		}
		le, err := requestLatency(encSim, k, n)
		if err != nil {
			return err
		}
		over := float64(le-lp) / float64(lp) * 100
		ref := paper[k.String()]
		fmt.Printf("%-8s %12v %12v %9.0f%%   %s / %s\n", k, lp, le, over, ref[0], ref[1])
	}
	fmt.Println("paper: CryptDB adds 7-18 ms (6-20%) per request")
	return nil
}

func requestLatency(s *forum.Sim, k forum.RequestKind, n int) (time.Duration, error) {
	start := time.Now()
	for i := 0; i < n; i++ {
		if _, err := s.Request(k); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / time.Duration(n), nil
}

// figStorageForum measures the annotated forum's storage expansion
// (§8.4.3: phpBB grows 2.6 MB -> 3.3 MB, ~1.2x; most growth is key
// tables, not data).
func figStorageForum() error {
	plainDB := sqldb.New()
	if err := forum.Load(workload.PlainDB{DB: plainDB}, forumCfg, nil); err != nil {
		return err
	}
	m, encDB, err := mpForum()
	if err != nil {
		return err
	}
	cfg := forumCfg
	cfg.Annotated = true
	if err := forum.Load(m, cfg, m.Login); err != nil {
		return err
	}

	keyBytes := 0
	for _, t := range []string{"cryptdb_access_keys", "cryptdb_public_keys", "cryptdb_external_keys"} {
		if tbl := encDB.Table(t); tbl != nil {
			keyBytes += tbl.SizeBytes()
		}
	}
	pb, eb := plainDB.SizeBytes(), encDB.SizeBytes()
	fmt.Printf("forum plaintext:          %10d bytes\n", pb)
	fmt.Printf("forum CryptDB (mp mode):  %10d bytes  (%.2fx), of which key tables: %d bytes\n",
		eb, float64(eb)/float64(pb), keyBytes)
	fmt.Println("paper: phpBB 2.6 MB -> 3.3 MB (~1.2x); most growth is access/public/external keys")
	return nil
}
