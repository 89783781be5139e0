package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sqldb"
	"repro/internal/sqlparser"
	"repro/internal/store"
	"repro/internal/store/sharded"
	"repro/internal/store/single"
)

// figShardScale measures routed single-statement write throughput against
// the sharded store at 1/2/4/8 shards, 16 concurrent sessions — the
// scaling wall this PR moves. Two arms:
//
//   - fsync on: each shard fsyncs its own WAL, so the streams overlap on
//     parallel storage — but cohorts also fragment (group commit amortizes
//     within one shard only), so slow-fsync devices trade amortization for
//     parallelism.
//   - nofsync: isolates the statement-lock split, the contention PR 4 left
//     behind: N shards means N independent db.mu write paths.
//
// Both axes need parallel hardware to pay off; the figure prints
// GOMAXPROCS so a flat curve on a single-core CI box reads as what it is.
// The store/single row is the PR 4 baseline; sharded-1 shows the
// interface itself costs nothing. Stats are read through
// store.Engine.Stats(), which sums across shards.
func figShardScale() error {
	const sessions = 16
	const perSession = 250
	fmt.Printf("Sharded store write scaling: 16 sessions, routed single-row INSERTs (PR 5), GOMAXPROCS=%d\n", runtime.GOMAXPROCS(0))
	fmt.Printf("%-18s %14s %14s %14s %16s\n", "store", "per stmt", "stmts/sec", "wal batches", "fsyncs (sum)")

	run := func(name string, open func(dir string) (store.Engine, error)) error {
		dir, err := os.MkdirTemp("", "cryptdb-shardscale")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		eng, err := open(dir)
		if err != nil {
			return err
		}
		defer eng.Close()
		if _, err := eng.ExecSQL("CREATE TABLE t (id INT PRIMARY KEY, payload TEXT)"); err != nil {
			return err
		}
		st, err := sqlparser.Parse("INSERT INTO t (id, payload) VALUES (?, ?)")
		if err != nil {
			return err
		}
		total := int64(sessions * perSession)
		var next int64
		var wg sync.WaitGroup
		errCh := make(chan error, sessions)
		start := time.Now()
		for g := 0; g < sessions; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				conn := eng.NewConn()
				defer conn.Close()
				for {
					i := atomic.AddInt64(&next, 1)
					if i > total {
						return
					}
					if _, err := conn.Exec(st, sqldb.Int(i), sqldb.Text("payload-payload-payload-payload")); err != nil {
						errCh <- err
						return
					}
				}
			}()
		}
		wg.Wait()
		elapsed := time.Since(start)
		close(errCh)
		for err := range errCh {
			return err
		}
		stats := eng.Stats()
		fmt.Printf("%-18s %14s %14.0f %14d %16d\n",
			name, (elapsed / time.Duration(total)).Round(time.Microsecond),
			float64(total)/elapsed.Seconds(), stats.WAL.Batches, stats.WAL.Syncs)
		return nil
	}

	for _, arm := range []struct {
		label   string
		noFsync bool
	}{
		{"fsync", false},
		{"nofsync", true},
	} {
		dopts := sqldb.DurabilityOptions{CheckpointBytes: -1, NoFsync: arm.noFsync}
		if err := run("single/"+arm.label, func(dir string) (store.Engine, error) {
			return single.Open(dir, dopts)
		}); err != nil {
			return err
		}
		for _, shards := range []int{1, 2, 4, 8} {
			n := shards
			if err := run(fmt.Sprintf("sharded-%d/%s", n, arm.label), func(dir string) (store.Engine, error) {
				return sharded.Open(dir, n, dopts)
			}); err != nil {
				return err
			}
		}
	}
	fmt.Println("\nRows route by hash of the hidden rid; each shard keeps its own WAL and")
	fmt.Println("group-commit cohort, so the statement lock and the fsync stream both multiply")
	fmt.Println("with the shard count (given cores/spindles to run them on). A read that")
	fmt.Println("spans shards runs per shard and finishes in shard 0's pipeline (not timed here).")
	return nil
}
