package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/proxy"
	"repro/internal/sqldb"
)

// figDurability measures the write-path cost of the durability subsystem
// (WAL + checkpoints) against the in-memory baseline, and the recovery
// path: time to reopen a data dir from manifest + page segments + WAL and
// serve the first query. The interesting numbers are the fsync column (the true cost of
// commit-durable writes; amortized by transactions) and the recovery time
// (bounded by the auto-checkpoint threshold).
func figDurability() error {
	const rows = 2000
	fmt.Println("durability write-path overhead and recovery (PR 3)")
	fmt.Printf("%-28s %14s %14s\n", "configuration", "per-INSERT", "vs memory")

	type cfg struct {
		name string
		open func(dir string) (*sqldb.DB, error)
	}
	var baseline time.Duration
	for _, c := range []cfg{
		{"in-memory (seed behavior)", func(string) (*sqldb.DB, error) { return sqldb.New(), nil }},
		{"wal, no fsync", func(dir string) (*sqldb.DB, error) {
			return sqldb.Open(dir, sqldb.DurabilityOptions{NoFsync: true, CheckpointBytes: -1})
		}},
		{"wal, fsync per commit", func(dir string) (*sqldb.DB, error) {
			return sqldb.Open(dir, sqldb.DurabilityOptions{CheckpointBytes: -1})
		}},
		{"wal, fsync, 100-row txns", func(dir string) (*sqldb.DB, error) {
			return sqldb.Open(dir, sqldb.DurabilityOptions{CheckpointBytes: -1})
		}},
	} {
		dir, err := os.MkdirTemp("", "cryptdb-durability")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		db, err := c.open(dir)
		if err != nil {
			return err
		}
		if _, err := db.ExecSQL("CREATE TABLE t (id INT, payload TEXT)"); err != nil {
			return err
		}
		batched := c.name == "wal, fsync, 100-row txns"
		start := time.Now()
		for i := 0; i < rows; i++ {
			if batched && i%100 == 0 {
				if _, err := db.ExecSQL("BEGIN"); err != nil {
					return err
				}
			}
			if _, err := db.ExecSQL("INSERT INTO t (id, payload) VALUES (?, ?)",
				sqldb.Int(int64(i)), sqldb.Text("payload-payload-payload-payload")); err != nil {
				return err
			}
			if batched && i%100 == 99 {
				if _, err := db.ExecSQL("COMMIT"); err != nil {
					return err
				}
			}
		}
		per := time.Since(start) / rows
		if baseline == 0 {
			baseline = per
			fmt.Printf("%-28s %14v %14s\n", c.name, per, "1.00x")
		} else {
			fmt.Printf("%-28s %14v %13.2fx\n", c.name, per, float64(per)/float64(baseline))
		}
		if err := db.Close(); err != nil {
			return fmt.Errorf("closing %s store: %w", c.name, err)
		}
	}

	// Recovery: a full encrypted stack (proxy + DBMS) reopened from disk,
	// first with pure WAL replay, then from a checkpoint.
	dir, err := os.MkdirTemp("", "cryptdb-recovery")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	db, err := sqldb.Open(dir, sqldb.DurabilityOptions{NoFsync: true, CheckpointBytes: -1})
	if err != nil {
		return err
	}
	p, err := proxy.New(db, proxy.Options{HOMBits: 256, DataDir: dir})
	if err != nil {
		return err
	}
	if _, err := p.Execute("CREATE TABLE emp (id INT PRIMARY KEY, salary INT)"); err != nil {
		return err
	}
	for i := 0; i < rows; i++ {
		if _, err := p.Execute(fmt.Sprintf("INSERT INTO emp (id, salary) VALUES (%d, %d)", i, i%1000)); err != nil {
			return err
		}
	}
	loaded := db.WALStats()
	if _, err := p.Execute("SELECT id FROM emp WHERE salary > 500 ORDER BY salary LIMIT 5"); err != nil {
		return err // materialises Ord and peels it: both must survive recovery
	}
	stats := db.WALStats()
	fmt.Printf("\nencrypted load (Eq onions): %d rows, wal %d batches / %d KiB\n", rows, loaded.Batches, loaded.Bytes/1024)
	fmt.Printf("first range query (materialises salary's Ord onion, one batch a row, then strips RND): +%d batches / +%d KiB\n",
		stats.Batches-loaded.Batches, (stats.Bytes-loaded.Bytes)/1024)
	if err := db.Close(); err != nil { // release the data-dir lock; recovery reopens it
		return err
	}

	reopen := func(label string) error {
		start := time.Now()
		db2, err := sqldb.Open(dir, sqldb.DurabilityOptions{NoFsync: true, CheckpointBytes: -1})
		if err != nil {
			return err
		}
		defer db2.Close()
		p2, err := proxy.New(db2, proxy.Options{HOMBits: 256, DataDir: dir})
		if err != nil {
			return err
		}
		if _, err := p2.Execute("SELECT id FROM emp WHERE salary > 500 ORDER BY salary LIMIT 5"); err != nil {
			return err
		}
		fmt.Printf("%-28s %14v (adjustments after restart: %d, want 0)\n",
			label, time.Since(start), p2.Stats().OnionAdjustments)
		return nil
	}
	if err := reopen("recover: wal replay"); err != nil {
		return err
	}
	dbc, err := sqldb.Open(dir, sqldb.DurabilityOptions{NoFsync: true, CheckpointBytes: -1})
	if err != nil {
		return err
	}
	if err := dbc.Checkpoint(); err != nil {
		dbc.Close()
		return err
	}
	if err := dbc.Close(); err != nil {
		return err
	}
	return reopen("recover: checkpoint")
}
