package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/sqldb"
	"repro/internal/store"
	"repro/internal/store/replicated"
	"repro/internal/store/single"
)

// figReplication measures what asynchronous WAL shipping costs and buys:
//
//   - primary-only: durable write throughput with no replication attached
//     (the baseline every other arm is judged against).
//   - primary+follower: the same writes while a live follower tails the
//     stream. Replication is asynchronous — taps hand flushed cohorts to a
//     background sender — so the commit path should be within noise of the
//     baseline; this arm is the proof.
//   - replicated-e2e: the clock stops only when the follower has applied
//     every row. The gap to primary+follower is the shipping+replay lag a
//     bounded-staleness read would observe.
//   - follower-reads: SELECT throughput against the caught-up follower —
//     the read capacity one replica adds without touching the primary.
func figReplication() error {
	const rows = 3000
	const reads = 2000
	fmt.Printf("Replication: async WAL shipping, one follower, GOMAXPROCS=%d\n", runtime.GOMAXPROCS(0))
	fmt.Printf("%-18s %14s %14s\n", "arm", "per op", "ops/sec")

	dopts := sqldb.DurabilityOptions{NoFsync: true, CheckpointBytes: -1}
	openPrimary := func() (store.Engine, func(), error) {
		dir, err := os.MkdirTemp("", "cryptdb-repl-prim")
		if err != nil {
			return nil, nil, err
		}
		eng, err := single.Open(dir, dopts)
		if err != nil {
			os.RemoveAll(dir) //nolint:errcheck // unwinding a failed open
			return nil, nil, err
		}
		cleanup := func() {
			eng.Close()       //cryptdb:vet-ok durabilityerr: bench teardown of a throwaway temp-dir store; nothing to preserve
			os.RemoveAll(dir) //nolint:errcheck // bench teardown
		}
		if _, err := eng.ExecSQL("CREATE TABLE t (id INT PRIMARY KEY, v INT, note TEXT)"); err != nil {
			cleanup()
			return nil, nil, err
		}
		return eng, cleanup, nil
	}

	insert := func(eng store.Engine, n int) (time.Duration, error) {
		start := time.Now()
		for i := 0; i < n; i++ {
			if _, err := eng.ExecSQL("INSERT INTO t (id, v, note) VALUES (?, ?, ?)",
				sqldb.Int(int64(i)), sqldb.Int(int64(i*3)), sqldb.Text("payload")); err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	}

	report := func(name string, ops int, el time.Duration) {
		perOp := el / time.Duration(ops)
		rate := float64(ops) / el.Seconds()
		fmt.Printf("%-18s %14s %14.0f\n", name, perOp, rate)
	}

	// Arm 1: no replication attached.
	eng, cleanup, err := openPrimary()
	if err != nil {
		return err
	}
	el, err := insert(eng, rows)
	cleanup()
	if err != nil {
		return err
	}
	report("primary-only", rows, el)

	// Arms 2-4 share one primary+follower pair.
	eng, cleanup, err = openPrimary()
	if err != nil {
		return err
	}
	defer cleanup()
	pe, err := replicated.WrapPrimary(eng, "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer pe.Close() //nolint:errcheck // bench teardown
	folDir, err := os.MkdirTemp("", "cryptdb-repl-fol")
	if err != nil {
		return err
	}
	defer os.RemoveAll(folDir) //nolint:errcheck // bench teardown
	fe, err := replicated.OpenFollower(folDir, pe.Addr(), dopts)
	if err != nil {
		return err
	}
	defer fe.Close() //nolint:errcheck // bench teardown

	waitCaughtUp := func() error {
		return fe.WaitCaughtUp([]uint64{pe.Replication().ShardSeq(0)}, 60*time.Second)
	}
	if err := waitCaughtUp(); err != nil {
		return err
	}

	el, err = insert(pe, rows)
	if err != nil {
		return err
	}
	report("primary+follower", rows, el)
	start := time.Now()
	if err := waitCaughtUp(); err != nil {
		return err
	}
	report("replicated-e2e", rows, el+time.Since(start))

	start = time.Now()
	for i := 0; i < reads; i++ {
		if _, err := fe.ExecSQL("SELECT v, note FROM t WHERE id = ?", sqldb.Int(int64(i%rows))); err != nil {
			return err
		}
	}
	report("follower-reads", reads, time.Since(start))

	// A follower that was offline while the primary checkpointed catches
	// up through the snapshot path; time the full resync.
	if err := pe.Checkpoint(); err != nil {
		return err
	}
	folDir2, err := os.MkdirTemp("", "cryptdb-repl-fol2")
	if err != nil {
		return err
	}
	defer os.RemoveAll(folDir2) //nolint:errcheck // bench teardown
	start = time.Now()
	fe2, err := replicated.OpenFollower(folDir2, pe.Addr(), dopts)
	if err != nil {
		return err
	}
	defer fe2.Close() //nolint:errcheck // bench teardown
	if err := fe2.WaitCaughtUp([]uint64{pe.Replication().ShardSeq(0)}, 60*time.Second); err != nil {
		return err
	}
	report("snapshot-resync", rows, time.Since(start))
	return nil
}
