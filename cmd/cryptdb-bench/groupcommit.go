package main

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sqldb"
)

// figGroupCommit measures WAL group commit under concurrent sessions: N
// writers issuing single-statement INSERTs with fsync on, against the
// serialized baseline where every committer pays its own fsync (the seed's
// behavior, kept behind DurabilityOptions.NoGroupCommit). The durability
// figure shows fsync dominating the write path ~40x; transactions amortize
// it only when the application batches explicitly — group commit amortizes
// it transparently across whatever concurrency the server already has.
func figGroupCommit() error {
	const perSession = 300
	fmt.Println("WAL group commit: concurrent single-statement writers, fsync on (PR 4)")
	fmt.Printf("%-12s %16s %16s %12s %18s\n", "sessions", "serialized", "group commit", "speedup", "fsyncs/commit")

	run := func(sessions int, noGroup bool) (time.Duration, float64, error) {
		dir, err := os.MkdirTemp("", "cryptdb-groupcommit")
		if err != nil {
			return 0, 0, err
		}
		defer os.RemoveAll(dir)
		db, err := sqldb.Open(dir, sqldb.DurabilityOptions{CheckpointBytes: -1, NoGroupCommit: noGroup})
		if err != nil {
			return 0, 0, err
		}
		defer db.Close()
		if _, err := db.ExecSQL("CREATE TABLE t (id INT, payload TEXT)"); err != nil {
			return 0, 0, err
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
				s := db.NewSession()
				defer s.Close()
				for {
					i := atomic.AddInt64(&next, 1)
					if i > total {
						return
					}
					if _, err := s.ExecSQL("INSERT INTO t (id, payload) VALUES (?, ?)",
						sqldb.Int(i), sqldb.Text("payload-payload-payload-payload")); err != nil {
						errCh <- err
						return
					}
				}
			}()
		}
		wg.Wait()
		per := time.Since(start) / time.Duration(total)
		close(errCh)
		for err := range errCh {
			return 0, 0, err
		}
		stats := db.Stats().WAL
		return per, float64(stats.Syncs) / float64(stats.Batches), nil
	}

	for _, sessions := range []int{1, 4, 16} {
		serial, _, err := run(sessions, true)
		if err != nil {
			return err
		}
		grouped, syncRatio, err := run(sessions, false)
		if err != nil {
			return err
		}
		fmt.Printf("%-12d %16v %16v %11.2fx %18.2f\n",
			sessions, serial, grouped, float64(serial)/float64(grouped), syncRatio)
	}
	fmt.Println("\nper-op wall time across all sessions; fsyncs/commit is the grouped run's")
	fmt.Println("sync-to-batch ratio (1.0 = no sharing, 1/N = perfect cohorts of N).")
	return nil
}
