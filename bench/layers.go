package main

import (
	"fmt"
	"math/big"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/crypto/det"
	"repro/internal/crypto/hom"
	"repro/internal/crypto/ope"
	"repro/internal/crypto/rnd"
	"repro/internal/crypto/search"
	"repro/internal/proxy"
	"repro/internal/sqldb"
	"repro/internal/sqlparser"
	"repro/internal/store"
	wl "repro/internal/workload"
)

// okCount is the number of measured statements the workers have completed.
func okCount(ws []*worker) int {
	n := 0
	for _, w := range ws {
		n += len(w.end)
	}
	return n
}

func sumUserBytes(ws []*worker) float64 {
	var n float64
	for _, w := range ws {
		n += float64(w.userBytes)
	}
	return n
}

// stack is an engine with a proxy on it and one worker per connection, all
// in this process.
type stack struct {
	eng store.Engine
	tr  *tracer // nil unless traced
	px  *proxy.Proxy
	ws  []*worker
}

func (s *stack) close() error {
	for _, w := range s.ws {
		w.ex.close()
	}
	return s.eng.Close()
}

// openStack builds what cryptdb-server builds for w: openEngine, then
// proxy.NewOnEngine on it, then one session per connection. With traced
// set, the tracing decorator sits between the proxy and the engine.
func openStack(w workload, m *mix, dir string, gens []generator, traced bool) (*stack, error) {
	eng, err := w.openEngine(dir)
	if err != nil {
		return nil, err
	}
	s := &stack{eng: eng}
	if traced {
		s.tr = newTracer(eng)
		eng = s.tr
	}
	if s.px, err = proxy.NewOnEngine(eng, proxy.Options{DataDir: dir}); err != nil {
		s.eng.Close()
		return nil, err
	}
	for _, g := range gens {
		sess := s.px.NewSession()
		wk := newWorker(inproc{ex: sess, closeFn: sess.Close}, g, m, nil)
		if traced {
			wk.tc = s.tr.lastConn()
		}
		s.ws = append(s.ws, wk)
	}
	return s, nil
}

// layerMetrics makes the traced in-process run on the directory the run
// over TCP left behind, continuing its statement streams, and reports the
// per-layer metrics.
func layerMetrics(rep *report, c runCfg, w workload, m *mix, r *tcpRun, seconds int) error {
	slice := time.Duration(seconds) * time.Second / 5
	perClass, all := merged(r.workers)
	var tcpSumUs float64
	for _, us := range all {
		tcpSumUs += us
	}

	gens := make([]generator, len(r.workers))
	for i, wk := range r.workers {
		gens[i] = wk.gen
	}
	openStart := time.Now()
	s, err := openStack(w, m, r.dir, gens, true)
	if err != nil {
		return fmt.Errorf("traced run: %w", err)
	}
	tr := s.tr
	reopenMs := float64(time.Since(openStart).Microseconds()) / 1e3

	// The proxy is new: let its OPE, AST and HOM caches fill again. The
	// onion layers came back from the directory, so nothing adjusts.
	drive(s.ws, c.warm, 0, false)
	// Recording off, on, off: the mean of the two untraced halves cancels
	// a drift across the run when the traced slice is compared with them.
	off1Elapsed := drive(s.ws, 0, slice/2, true)
	off1Stmts := okCount(s.ws)
	eng0, px0 := s.eng.Stats(), s.px.Stats()
	userBytes := -sumUserBytes(s.ws)
	tr.on.Store(true)
	onElapsed := drive(s.ws, 0, slice, true)
	tr.on.Store(false)
	eng1, px1 := s.eng.Stats(), s.px.Stats()
	userBytes += sumUserBytes(s.ws)
	onStmts := okCount(s.ws) - off1Stmts
	off2Elapsed := drive(s.ws, 0, slice/2, true)
	offStmts := okCount(s.ws) - onStmts
	offElapsed := off1Elapsed + off2Elapsed
	homKey := s.px.HOMKey()
	var lines []string
	for _, wk := range s.ws {
		lines = append(lines, wk.lines...)
	}
	err = firstFailure(s.ws)
	if cerr := s.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("traced run: %w", err)
	}

	spans := tr.all()
	if err := os.MkdirAll(c.traceDir, 0o755); err != nil {
		return err
	}
	if err := writeTrace(filepath.Join(c.traceDir, w.name+".trace.jsonl"), spans); err != nil {
		return err
	}
	tot := totals(spans)
	n := float64(tot.stmts)
	rootUs := float64(tot.rootNs) / 1e3 / n
	onTput := float64(onStmts) / onElapsed.Seconds()
	offTput := float64(offStmts) / offElapsed.Seconds()

	refTput, err := refThroughput(c, w, m, r, slice)
	if err != nil {
		return fmt.Errorf("reference arm: %w", err)
	}

	// server: what the TCP path adds to a statement, and the process's size.
	rep.add("server.wire_us_per_stmt", tcpSumUs/float64(len(all))-rootUs, "us")
	rep.add("server.rss_peak_mb", r.rssPeakMB, "MB")
	// Server-process CPU per acknowledged statement over the TCP interval,
	// as the guest accounts it. Not an end-to-end metric: when the box is
	// slow this rises with the wall clock at first (1.0-1.4x), then stops
	// following it, and no probe tracked it well enough to divide by.
	rep.add("server.cpu_us_per_op", ratio(r.cpuS*1e6, float64(len(all))), "us")

	// sqlparser: sqlparser.Parse timed over the lines the traced run issued.
	parseUs := timeParse(lines)
	rep.add("sqlparser.parse_us_per_stmt", parseUs, "us")
	rep.add("sqlparser.parse_frac", parseUs/rootUs, "ratio")

	// proxy: the root spans' self time, and the proxy's own counters.
	rep.add("proxy.self_us_per_stmt", float64(tot.selfNs())/1e3/n, "us")
	rep.add("proxy.self_frac", ratio(float64(tot.selfNs()), float64(tot.rootNs)), "ratio")
	rep.add("proxy.engine_calls_per_stmt", float64(tot.calls)/n, "count")
	hits, misses := float64(px1.ASTCacheHits-px0.ASTCacheHits), float64(px1.ASTCacheMisses-px0.ASTCacheMisses)
	rep.add("proxy.astcache_hit_frac", ratio(hits, hits+misses), "ratio")
	rep.add("proxy.onion_adjustments", float64(px1.OnionAdjustments-px0.OnionAdjustments), "count")
	rep.add("proxy.inproxy_sorts", float64(px1.InProxySorts-px0.InProxySorts), "count")
	rep.add("proxy.resyncs", float64(px1.Resyncs-px0.Resyncs), "count")

	cryptoMicro(rep, homKey)

	// store: the store.exec spans, against the engines' own busy time.
	busy := float64(eng1.BusyNanos - eng0.BusyNanos)
	rep.add("store.exec_us_per_stmt", float64(tot.storeNs)/1e3/n, "us")
	rep.add("store.exec_frac", ratio(float64(tot.storeNs), float64(tot.rootNs)), "ratio")
	rep.add("store.sharded.busy_over_span", ratio(busy, float64(tot.storeNs)), "ratio")
	rep.add("store.sharded.group_pushdowns", float64(eng1.Plan.GroupPushdowns-eng0.Plan.GroupPushdowns), "count")

	// sqldb plan/exec.
	p0, p1 := eng0.Plan, eng1.Plan
	compiled, interp := float64(p1.Compiled-p0.Compiled), float64(p1.Interpreted-p0.Interpreted)
	pipelines := float64(p1.ParallelPipelines - p0.ParallelPipelines)
	rep.add("sqldb.busy_us_per_stmt", busy/1e3/n, "us")
	rep.add("sqldb.plan.interpreted", interp, "count")
	rep.add("sqldb.plan.compiled_frac", ratio(compiled, compiled+interp), "ratio")
	rep.add("sqldb.plan.fullscans_per_stmt", float64(p1.FullScans-p0.FullScans)/n, "count")
	rep.add("sqldb.plan.hashjoins", float64(p1.HashJoins-p0.HashJoins), "count")
	rep.add("sqldb.plan.degraded_joins", float64(p1.DegradedJoins-p0.DegradedJoins), "count")
	rep.add("sqldb.exec.parallel_pipelines", pipelines, "count")
	rep.add("sqldb.exec.morsels_per_pipeline", ratio(float64(p1.Morsels-p0.Morsels), pipelines), "count")

	// sqldb WAL/checkpoint.
	commits := float64(eng1.WAL.Batches - eng0.WAL.Batches)
	walBytes := float64(eng1.WAL.Bytes - eng0.WAL.Bytes)
	rep.add("sqldb.wal.bytes_per_commit", ratio(walBytes, commits), "B")
	rep.add("sqldb.wal.bytes_per_user_byte", ratio(walBytes, userBytes), "ratio")
	rep.add("sqldb.ckpt.count", float64(eng1.WAL.Checkpoints-eng0.WAL.Checkpoints), "count")
	rep.add("sqldb.ckpt.pause_ms", float64(eng1.CheckpointPauseNanos-eng0.CheckpointPauseNanos)/1e6, "ms")
	rep.add("sqldb.ckpt.last_bytes", float64(eng1.LastCheckpointBytes), "B")
	rep.add("sqldb.reopen_ms", reopenMs, "ms")

	// sqldb cache (all zero on the resident layout).
	c0, c1 := eng0.Cache, eng1.Cache
	chits, cmiss := float64(c1.Hits-c0.Hits), float64(c1.Misses-c0.Misses)
	rep.add("sqldb.cache.hit_frac", ratio(chits, chits+cmiss), "ratio")
	rep.add("sqldb.cache.misses_per_stmt", cmiss/n, "count")
	rep.add("sqldb.cache.evictions", float64(c1.Evictions-c0.Evictions), "count")
	rep.add("sqldb.cache.resident_mb", float64(c1.ResidentBytes)/(1<<20), "MB")
	rep.add("sqldb.disk_mb", float64(eng1.DiskBytes)/(1<<20), "MB")

	// client: the run over TCP, by class. A run reports every class name
	// of both mixes (join and insert are in both); the other mix's are 0.
	p50 := map[string]float64{}
	for ci, cl := range m.classes {
		p50[cl.name] = percentile(perClass[ci], 50)
	}
	for _, mx := range []*mix{tpccSized(true), analyticSized(0, 0)(true)} {
		for _, cl := range mx.classes {
			if _, done := rep.metrics["client.p50_us."+cl.name]; !done {
				rep.add("client.p50_us."+cl.name, p50[cl.name], "us")
			}
		}
	}
	var ends []float64
	for _, wk := range r.workers {
		ends = append(ends, wk.end...)
	}
	rep.add("client.lat_p99_us", percentile(all, 99), "us")
	rep.add("client.window_cv", windowCV(ends, r.elapsed.Seconds(), 2), "ratio")
	// The numbers of this report are on the wall clock; the time-based
	// end-to-end ones are divided by this factor (see speed.go).
	rep.add("client.box_slowdown", r.slow, "ratio")

	rep.add("ref.throughput_ratio", ratio(offTput, refTput), "ratio")
	rep.add("trace.overhead_frac", 1-ratio(onTput, offTput), "ratio")
	rep.add("trace.spans", float64(len(spans)), "count")
	return nil
}

// refThroughput runs the workload's reference arm for d, in this process,
// on the lines the run over TCP started with: the same directory options
// and flush policy, but plaintext sqldb behind workload.Passthrough (the
// paper's MySQL+proxy baseline), or the encrypted stack on the reference
// topology.
func refThroughput(c runCfg, w workload, m *mix, r *tcpRun, d time.Duration) (float64, error) {
	dir, err := c.dataDir(w.name + "-ref")
	if err != nil {
		return 0, err
	}
	gens := make([]generator, c.nconn)
	for i := range gens {
		gens[i] = m.stream(c.seed, i, c.nconn)
	}
	var ws []*worker
	var closeFn func() error
	if w.refPlain {
		db, err := sqldb.Open(dir, w.durability())
		if err != nil {
			return 0, err
		}
		closeFn = db.Close
		for _, g := range gens {
			ws = append(ws, newWorker(inproc{ex: wl.Passthrough{DB: db}}, g, m, nil))
		}
	} else {
		s, err := openStack(w.refTopology(w), m, dir, gens, false)
		if err != nil {
			return 0, err
		}
		closeFn, ws = s.close, s.ws
	}
	exs := make([]executor, len(ws))
	for i, wk := range ws {
		exs[i] = wk.ex
	}
	orc, err := newOracle(m.ddl, r.load)
	if err == nil {
		err = loadLines(exs, m.ddl, r.load, nil)
	}
	if err == nil {
		err = warmUp(ws, orc, c.warm/2)
	}
	var tput float64
	if err == nil {
		elapsed := drive(ws, 0, d, true)
		tput = float64(okCount(ws)) / elapsed.Seconds()
		err = firstFailure(ws)
	}
	if cerr := closeFn(); err == nil {
		err = cerr
	}
	return tput, err
}

// timeParse is the mean time of sqlparser.Parse over lines, µs.
func timeParse(lines []string) float64 {
	if len(lines) == 0 {
		return 0
	}
	start := time.Now()
	for _, l := range lines {
		if _, err := sqlparser.Parse(l); err != nil {
			panic(err) // the proxy has just parsed this line
		}
	}
	return float64(time.Since(start).Nanoseconds()) / 1e3 / float64(len(lines))
}

// cryptoMicro times the exported encrypt/decrypt of each scheme on values
// shaped like the workloads' (8-digit integers, six-word texts).
func cryptoMicro(rep *report, hk *hom.Key) {
	rng := rand.New(rand.NewSource(1))
	key := []byte("bench-crypto-micro-key-32-bytes!")
	ints := make([]uint64, 200)
	for i := range ints {
		ints[i] = uint64(rng.Intn(100_000_000))
	}
	text := words(rng, 6)
	// per times n calls of fn and returns µs per call.
	per := func(n int, fn func(i int)) float64 {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		return float64(time.Since(start).Nanoseconds()) / 1e3 / float64(n)
	}
	must := func(err error) {
		if err != nil {
			panic(fmt.Sprintf("crypto micro: %v", err))
		}
	}

	dc := det.New(key)
	cts := make([]uint64, len(ints))
	rep.add("crypto.det.enc_us", per(20*len(ints), func(i int) { cts[i%len(ints)] = dc.Uint64(ints[i%len(ints)]) }), "us")
	rep.add("crypto.det.dec_us", per(20*len(ints), func(i int) { dc.DecryptUint64(cts[i%len(ints)]) }), "us")

	oc := ope.New(key)
	encOPE := func(i int) {
		_, err := oc.Encrypt(ints[i])
		must(err)
	}
	rep.add("crypto.ope.enc_miss_us", per(len(ints), encOPE), "us")
	rep.add("crypto.ope.enc_hit_us", per(len(ints), encOPE), "us")

	const homN = 40
	homCts := make([]*big.Int, homN)
	rep.add("crypto.hom.enc_us", per(homN, func(i int) {
		var err error
		homCts[i], err = hk.EncryptInt64(int64(ints[i]))
		must(err)
	}), "us")
	rep.add("crypto.hom.dec_us", per(homN, func(i int) {
		_, err := hk.DecryptInt64(homCts[i])
		must(err)
	}), "us")

	iv, err := rnd.NewIV()
	must(err)
	blob, err := rnd.Bytes(key[:16], iv, []byte(text))
	must(err)
	rep.add("crypto.rnd.dec_us", per(4000, func(int) {
		_, err := rnd.DecryptBytes(key[:16], iv, blob)
		must(err)
	}), "us")

	sc := search.New(key)
	rep.add("crypto.search.enc_us", per(2000, func(int) {
		_, err := sc.EncryptText(text)
		must(err)
	}), "us")
}
