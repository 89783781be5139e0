// Command cryptdb-bench regenerates every table and figure of the paper's
// evaluation (§8) against this reproduction, plus the reproduction's own
// subsystem figures:
//
//	cryptdb-bench -fig <name>   one figure
//	cryptdb-bench -fig all      every figure, in the order of the table
//	cryptdb-bench -h            the names, from the table in this file
//
// With -json, each figure also writes BENCH_<fig>.json (ns/op, rows/s and
// GOMAXPROCS per arm) for plotting and trend tracking.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
)

// figures is the one list of what this command can regenerate: -fig's
// lookup, -fig all's order and the flag's help text all come from it.
var figures = []struct {
	name, blurb string
	fn          func() error
}{
	{"7", "trace schema statistics", fig7},
	{"8", "annotation / code-change effort", fig8},
	{"9", "steady-state onion levels (security analysis)", fig9},
	{"10", "TPC-C throughput vs server cores", fig10},
	{"11", "per-query-class throughput vs strawman", fig11},
	{"12", "server/proxy latency, with and without precompute", fig12},
	{"13", "cryptographic scheme microbenchmarks", fig13},
	{"14", "phpBB-style throughput (3 configurations)", fig14},
	{"15", "phpBB-style per-request latency", fig15},
	{"storage", "ciphertext storage expansion (§8.4.3)", figStorage},
	{"adjust", "onion-layer removal throughput (§8.4.4)", figAdjust},
	{"ablation", "design-choice ablations (OPE cache, HOM pool, indexes)", figAblation},
	{"bulkload", "batched, parallel multi-row INSERT pipeline (§3.1)", figBulkLoad},
	{"rangescan", "ordered OPE indexes vs full scans (§3.3)", figRangeScan},
	{"durability", "WAL/checkpoint write-path overhead & recovery", figDurability},
	{"groupcommit", "concurrent sessions + WAL group commit", figGroupCommit},
	{"shardscale", "sharded store write scaling (1/2/4/8 shards)", figShardScale},
	{"joins", "compiled-pipeline joins and GROUP BY, single vs 4-shard", figJoins},
	{"replication", "WAL shipping: primary-only vs primary+follower, snapshot resync", figReplication},
}

func main() {
	var help strings.Builder
	help.WriteString("figure/table to regenerate: all, or one of\n")
	for _, f := range figures {
		fmt.Fprintf(&help, "  %-13s %s\n", f.name, f.blurb)
	}
	fig := flag.String("fig", "all", strings.TrimSuffix(help.String(), "\n"))
	jsonFlag := flag.Bool("json", false, "also write BENCH_<fig>.json per figure")
	flag.Parse()
	jsonEnabled = *jsonFlag

	ran := false
	for _, f := range figures {
		if *fig != "all" && *fig != f.name {
			continue
		}
		ran = true
		header(f.name)
		err := f.fn()
		if err == nil {
			err = flushJSON(f.name)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "figure %s: %v\n", f.name, err)
			os.Exit(1)
		}
		if *fig == "all" {
			fmt.Println()
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown figure %q\n", *fig)
		os.Exit(2)
	}
}

func header(fig string) {
	fmt.Printf("==== Figure/Table %s ", fig)
	for i := len(fig); i < 60; i++ {
		fmt.Print("=")
	}
	fmt.Println()
}
