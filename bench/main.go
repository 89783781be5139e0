// Command bench is the repository's one benchmark: it builds
// cryptdb-server, and for a workload starts it as a subprocess, loads data
// over the line protocol, drives a timed closed loop, checks what came
// back, and prints every metric by name with its unit. With -trace 1 it
// also makes an in-process traced run for the per-layer metrics. It is a
// module of its own and runs from the repository's root: bash bench/run.sh.
// See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// buildDir holds the server binary and the data directories; traceDir
// receives <workload>.trace.jsonl. Both are inside the checkout and in
// .gitignore.
const (
	buildDir = ".bench_build"
	traceDir = "bench/out"
)

// metric is one reported number. Metrics print in the order they are added.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	names   []string
	metrics map[string]metric
}

func (r *report) add(name string, v float64, unit string) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	if _, dup := r.metrics[name]; dup {
		panic("metric reported twice: " + name)
	}
	r.names = append(r.names, name)
	r.metrics[name] = metric{v, unit}
}

// result is the last line of the output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same statement lines")
	seconds := flag.Int("seconds", 25, "length of the measured interval")
	trace := flag.Int("trace", 0, "1: report the per-layer metrics of a traced run; 0: the end-to-end metrics")
	smoke := flag.Bool("smoke", false, "tiny tables and the given (short) interval: checks the plumbing, measures nothing")
	flag.Parse()

	var sel []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			sel = append(sel, w)
		}
	}
	if len(sel) == 0 || *seconds < 1 || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q, bad -seconds, or stray arguments\n", *name)
		os.Exit(2)
	}
	bin, err := buildServer(buildDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	failed := false
	for _, w := range sel {
		res, err := run(w, bin, *seed, *seconds, *trace != 0, *smoke)
		if err != nil {
			// No result line: the run did not measure anything.
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		line, _ := json.Marshal(res)
		fmt.Printf("%s\n", line)
		failed = failed || !res.Correct
	}
	if failed {
		os.Exit(1)
	}
}

// buildServer builds cmd/cryptdb-server from the checkout's source into dir.
func buildServer(dir string) (string, error) {
	bin, err := filepath.Abs(filepath.Join(dir, "cryptdb-server"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/cryptdb-server")
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("go build repro/cmd/cryptdb-server (run from inside the repository): %w", err)
	}
	return bin, nil
}

// configure fixes the intervals of a run.
func configure(w workload, bin string, seed int64, seconds int, traced, smoke bool) runCfg {
	c := runCfg{
		bin: bin, workDir: filepath.Join(buildDir, "data"), traceDir: traceDir, seed: seed,
		nconn: w.conns, warm: warmStmts,
		measure: time.Duration(seconds) * time.Second,
	}
	if c.nconn == 0 {
		c.nconn = runtime.NumCPU()
	}
	if smoke {
		// One connection: two proxy sessions running joins in one process
		// race in proxy.(*ColumnMeta).groupRoot (see README), and the smoke
		// pass is what `go test -race` runs here.
		c.nconn, c.warm = 1, 20
	}
	if traced {
		// The traced run shares the interval with the run over TCP, which
		// it needs for the client.* and server.* numbers.
		c.measure /= 2
	}
	return c
}

func run(w workload, bin string, seed int64, seconds int, traced, smoke bool) (*result, error) {
	m := w.mix(smoke)
	c := configure(w, bin, seed, seconds, traced, smoke)
	if err := os.MkdirAll(c.workDir, 0o755); err != nil {
		return nil, err
	}
	header(w, m, c, seconds, traced)

	r, err := runTCP(c, w, m)
	if err != nil {
		return nil, err
	}
	fmt.Printf("# loaded %d plaintext bytes; the data directory holds %d", r.plainBytes, r.dirBytes)
	if w.paged {
		fmt.Printf("; buffer cache %d MiB, %.2f of that", w.cacheMB, float64(w.cacheMB<<20)/float64(r.dirBytes))
	}
	fmt.Println()
	res := &result{}
	for _, wk := range r.workers {
		res.Attempted += wk.attempted
		res.Failed += wk.failed
	}
	if err := firstFailure(r.workers); err != nil {
		fmt.Printf("# first failed operation: %v\n# server log:\n%s\n", err, r.serverLog)
	}
	if r.checkErr != nil {
		fmt.Printf("# check after kill -9 FAILED: %v\n", r.checkErr)
	}
	res.Correct = res.Failed == 0 && r.checkErr == nil

	var rep report
	if traced {
		if err := layerMetrics(&rep, c, w, m, r, seconds); err != nil {
			return nil, err
		}
		if rep.metrics["proxy.onion_adjustments"].Value != 0 {
			fmt.Println("# onion adjustments during the traced interval: the warm-up did not reach the steady state")
			res.Correct = false
		}
	} else {
		endToEnd(&rep, r)
	}
	for _, n := range rep.names {
		fmt.Printf("%-34s %16.4f %s\n", n, rep.metrics[n].Value, rep.metrics[n].Unit)
	}
	res.Metrics = rep.metrics
	return res, nil
}

// warmStmts per connection follow the one-of-every-class statements.
const warmStmts = 100

// merged is every worker's measured latencies, per class and overall.
func merged(ws []*worker) (perClass [][]float64, all []float64) {
	perClass = make([][]float64, len(ws[0].m.classes))
	for _, w := range ws {
		for c, l := range w.lat {
			perClass[c] = append(perClass[c], l...)
			all = append(all, l...)
		}
	}
	return perClass, all
}

// endToEnd reports the five metrics a user of the system sees.
func endToEnd(rep *report, r *tcpRun) {
	perClass, all := merged(r.workers)
	medians := make([]float64, len(perClass))
	var byClass []string
	for c, l := range perClass {
		medians[c] = percentile(l, 50)
		byClass = append(byClass, fmt.Sprintf("%s %.0f (%d)", r.workers[0].m.classes[c].name, medians[c], len(l)))
	}
	fmt.Printf("# class medians, us (samples): %s\n", strings.Join(byClass, ", "))
	ok := float64(len(all))
	fmt.Printf("# measured %d statements in %.3f s; lat_p95_us has %d samples beyond it\n",
		len(all), r.elapsed.Seconds(), len(all)/20)
	tput := ok / r.elapsed.Seconds()
	classP50, p95 := geomean(medians), percentile(all, 95)
	fmt.Printf("# on the wall clock: %.1f ops/s, class p50 %.1f us, p95 %.1f us, server cpu %.1f us/op, set-up %.2f s\n",
		tput, classP50, p95, ratio(r.cpuS*1e6, ok), r.setupS)
	fmt.Printf("# box slowdown %.4f over the interval (%d probes), %.4f over set-up\n", r.slow, r.probes, r.setupSlow)
	// Times are divided by the box's slowdown while they were measured
	// (see speed.go): they read as on a box of nominal speed.
	rep.add("throughput_ops_s", tput*r.slow, "1/s")
	// The overall median of a multi-modal mix sits on a class boundary and
	// jumps between runs; the geometric mean of the class medians does not,
	// and a gain in a rare class still shows.
	rep.add("lat_class_p50_us", classP50/r.slow, "us")
	rep.add("lat_p95_us", p95/r.slow, "us")
	rep.add("storage_expansion", ratio(float64(r.dirBytes), float64(r.plainBytes)), "ratio")
	rep.add("setup_s", r.setupS/r.setupSlow, "s")
}

// header prints the environment of the run, one '#' line each.
func header(w workload, m *mix, c runCfg, seconds int, traced bool) {
	sha := "unknown (not a git checkout)"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		sha = strings.TrimSpace(string(out))
	}
	tables := m.tables
	names := make([]string, 0, len(tables))
	for t := range tables {
		names = append(names, t)
	}
	sort.Strings(names)
	var sizes []string
	for _, t := range names {
		sizes = append(sizes, fmt.Sprintf("%s=%d", t, tables[t]))
	}
	fmt.Printf("# workload %s: %s\n", w.name, w.why)
	fmt.Printf("# git %s; %s; nproc %d; GOMAXPROCS %d (server: default)\n",
		sha, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
	fmt.Printf("# server flags: %s\n", strings.Join(w.serverArgs("<dir>"), " "))
	fmt.Printf("# data dir %s on %s\n", c.workDir, fsType(c.workDir))
	fmt.Printf("# seed %d; %d connections, closed loop, zero think time; traced %v\n", c.seed, c.nconn, traced)
	fmt.Printf("# intervals: warm-up %d statements/connection after one of every class; measured %v of -seconds %d\n",
		c.warm, c.measure, seconds)
	fmt.Printf("# rows loaded: %s\n", strings.Join(sizes, " "))
}
