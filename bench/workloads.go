package main

import (
	"strconv"

	"repro/internal/sqldb"
	"repro/internal/store"
	"repro/internal/store/sharded"
	"repro/internal/store/single"
	"repro/internal/workload/tpcc"
)

// checkpointMB is cryptdb-server's -checkpoint-mb on every workload.
const checkpointMB = 4

// workload is a mix on a server topology. The flush policy is part of the
// definition: it never differs between two sides of a comparison.
type workload struct {
	name string
	why  string // why it exists; BENCHMARK.json carries the same line
	mix  func(smoke bool) *mix

	conns   int   // closed-loop connections; 0 means one per CPU
	shards  int   // -shards
	paged   bool  // -paged
	cacheMB int64 // -cache-mb, with paged

	// The reference arm of the traced run (ref.throughput_ratio): the
	// same lines on plaintext sqldb behind workload.Passthrough, or on
	// the encrypted stack over a simpler topology.
	refPlain    bool
	refTopology func(workload) workload
}

// Every INT loaded costs a Paillier and an OPE encryption, about 1 ms on
// two cores, and the first value of each of TPC-C's 58 INT columns 80 ms
// more; these sizes keep set-up near 10 s.
func tpccSized(smoke bool) *mix {
	if smoke {
		return tpccMix(tpcc.Config{Warehouses: 1, Districts: 1, Customers: 3, Items: 4, Orders: 3})
	}
	return tpccMix(tpcc.Config{Warehouses: 1, Districts: 5, Customers: 40, Items: 100, Orders: 20})
}

func analyticSized(users, orders int) func(smoke bool) *mix {
	return func(smoke bool) *mix {
		if smoke {
			return analyticMix(analyticCfg{users: 12, orders: 20, groups: 4})
		}
		return analyticMix(analyticCfg{users: users, orders: orders, groups: 8})
	}
}

var workloads = []workload{
	{
		name: "tpcc-nofsync",
		why:  "TPC-C 8-class mix, one shard, resident, no fsync: CPU-bound, over 90% of a statement is proxy rewrite and crypto (Paillier, OPE), sqldb about 6%",
		mix:  tpccSized, shards: 1, refPlain: true,
	},
	{
		name: "analytic-shard2",
		why:  "join/group/range/search mix on 2 shards: two thirds of a statement is the store, and the shards are busy for under half of that (scatter-gather, gather join fallback)",
		mix:  analyticSized(500, 600), shards: 2,
		refTopology: func(w workload) workload { w.shards = 1; return w },
	},
	{
		name: "analytic-paged",
		why:  "the analytic mix on paged storage with a buffer cache half the stored bytes, one connection: 80% of a statement is sqldb, 4-5 page faults a statement",
		// 4.0 MB on disk against a 2 MiB cache. A third would need a 1 MiB
		// cache, the flag's minimum: a page is 256 rows of 1-2.4 KB, so that
		// is two to four pages, hash-join probes fault on every row and six
		// seeds ranged over 23-31 statements/s and 78-444 ms at p95. Reaching
		// a third by loading 6 MB costs 13 s of set-up (1 ms per INT). Most
		// rows are users because those cost two INTs each, not five.
		mix: analyticSized(2200, 500), shards: 1, paged: true, cacheMB: 2,
		// One connection, not one per CPU: when two connections fault the
		// same page while one of them evicts, Table.page can return nil and
		// cryptdb-server dies of SIGSEGV in Table.rowAt (seen in about one
		// 15 s run in twenty). A benchmark needs workloads on which no
		// operation fails; raise this when sqldb's faultPage is fixed.
		conns:       1,
		refTopology: func(w workload) workload { w.paged = false; return w },
	},
}

// serverArgs are the cryptdb-server flags of this workload. No workload
// waits for fsync: on the reference box one costs 0.2 ms against the 1-6 ms
// of proxy work in a statement, so a run with it measures the same thing
// (see README, "Why there is no fsync workload").
func (w workload) serverArgs(dir string) []string {
	args := []string{"-data-dir", dir, "-checkpoint-mb", strconv.Itoa(checkpointMB), "-wal-nofsync"}
	if w.shards > 1 {
		args = append(args, "-shards", strconv.Itoa(w.shards))
	}
	if w.paged {
		args = append(args, "-paged", "-cache-mb", strconv.FormatInt(w.cacheMB, 10))
	}
	return args
}

func (w workload) durability() sqldb.DurabilityOptions {
	return sqldb.DurabilityOptions{
		NoFsync:         true,
		CheckpointBytes: checkpointMB << 20,
		Paged:           w.paged,
		CacheBytes:      w.cacheMB << 20 / int64(w.shards), // the server splits the budget across shards
	}
}

// openEngine builds in this process what cryptdb-server's openEngine builds
// from serverArgs.
func (w workload) openEngine(dir string) (store.Engine, error) {
	if w.shards > 1 {
		return sharded.Open(dir, w.shards, w.durability())
	}
	return single.Open(dir, w.durability())
}
