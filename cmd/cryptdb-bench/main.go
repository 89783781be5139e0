// Command cryptdb-bench regenerates every table and figure of the paper's
// evaluation (§8) against this reproduction:
//
//	cryptdb-bench -fig 7        trace schema statistics
//	cryptdb-bench -fig 8        annotation / code-change effort
//	cryptdb-bench -fig 9        steady-state onion levels (security analysis)
//	cryptdb-bench -fig 10       TPC-C throughput vs server cores
//	cryptdb-bench -fig 11       per-query-class throughput vs strawman
//	cryptdb-bench -fig 12       server/proxy latency, with and without precompute
//	cryptdb-bench -fig 13       cryptographic scheme microbenchmarks
//	cryptdb-bench -fig 14       phpBB-style throughput (3 configurations)
//	cryptdb-bench -fig 15       phpBB-style per-request latency
//	cryptdb-bench -fig storage  ciphertext storage expansion (§8.4.3)
//	cryptdb-bench -fig adjust   onion-layer removal throughput (§8.4.4)
//	cryptdb-bench -fig ablation design-choice ablations (OPE cache, HOM pool, indexes)
//	cryptdb-bench -fig bulkload batched, parallel multi-row INSERT pipeline (§3.1)
//	cryptdb-bench -fig rangescan ordered OPE indexes vs full scans (§3.3)
//	cryptdb-bench -fig durability WAL/snapshot write-path overhead & recovery
//	cryptdb-bench -fig groupcommit concurrent sessions + WAL group commit
//	cryptdb-bench -fig shardscale sharded store write scaling (1/2/4/8 shards)
//	cryptdb-bench -fig joins    compiled-pipeline joins and GROUP BY, single vs 4-shard
//	cryptdb-bench -fig parallelexec morsel-parallel workers sweep (resident + paged)
//	cryptdb-bench -fig all      everything
//
// With -json, each figure also writes BENCH_<fig>.json (ns/op, rows/s and
// GOMAXPROCS per arm) for plotting and trend tracking.
package main

import (
	"flag"
	"fmt"
	"os"
)

var figures = map[string]func() error{
	"7":            fig7,
	"8":            fig8,
	"9":            fig9,
	"10":           fig10,
	"11":           fig11,
	"12":           fig12,
	"13":           fig13,
	"14":           fig14,
	"15":           fig15,
	"storage":      figStorage,
	"adjust":       figAdjust,
	"ablation":     figAblation,
	"bulkload":     figBulkLoad,
	"rangescan":    figRangeScan,
	"durability":   figDurability,
	"groupcommit":  figGroupCommit,
	"shardscale":   figShardScale,
	"joins":        figJoins,
	"parallelexec": figParallelExec,
	"replication":  figReplication,
}

var order = []string{"7", "8", "9", "10", "11", "12", "13", "14", "15", "storage", "adjust", "ablation", "bulkload", "rangescan", "durability", "groupcommit", "shardscale", "joins", "parallelexec", "replication"}

func main() {
	fig := flag.String("fig", "all", "figure/table to regenerate (7..15, storage, adjust, ablation, bulkload, rangescan, durability, groupcommit, shardscale, joins, all)")
	jsonFlag := flag.Bool("json", false, "also write BENCH_<fig>.json per figure")
	flag.Parse()
	jsonEnabled = *jsonFlag

	if *fig == "all" {
		for _, f := range order {
			header(f)
			if err := figures[f](); err != nil {
				fmt.Fprintf(os.Stderr, "figure %s: %v\n", f, err)
				os.Exit(1)
			}
			if err := flushJSON(f); err != nil {
				fmt.Fprintf(os.Stderr, "figure %s: %v\n", f, err)
				os.Exit(1)
			}
			fmt.Println()
		}
		return
	}
	fn, ok := figures[*fig]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown figure %q\n", *fig)
		os.Exit(2)
	}
	header(*fig)
	if err := fn(); err != nil {
		fmt.Fprintf(os.Stderr, "figure %s: %v\n", *fig, err)
		os.Exit(1)
	}
	if err := flushJSON(*fig); err != nil {
		fmt.Fprintf(os.Stderr, "figure %s: %v\n", *fig, err)
		os.Exit(1)
	}
}

func header(fig string) {
	fmt.Printf("==== Figure/Table %s ", fig)
	for i := len(fig); i < 60; i++ {
		fmt.Print("=")
	}
	fmt.Println()
}
