package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// runCfg is what one invocation fixes for its runs.
type runCfg struct {
	bin      string // the cryptdb-server binary
	workDir  string // data directories live here
	traceDir string // the trace file goes here
	seed     int64
	nconn    int
	warm     int // warm-up statements per connection, after one of every class
	measure  time.Duration
}

// tcpRun is what the run over TCP leaves behind.
type tcpRun struct {
	load       []string
	plainBytes int64 // plaintext loaded
	dirBytes   int64 // data directory after load and a graceful stop
	speed      *speedometer
	setupS     float64       // set-up time, wall clock
	setupSlow  float64       // the box's slowdown over set-up (see speed.go)
	elapsed    time.Duration // the measured interval, wall clock
	slow       float64       // the box's slowdown over it
	probes     int           // the probes behind slow
	cpuS       float64       // server CPU over it
	rssPeakMB  float64
	workers    []*worker
	dir        string // the data directory, closed gracefully after the checks
	checkErr   error  // the check after the crash
	serverLog  string // the measured server's last log lines
}

func (c runCfg) dataDir(name string) (string, error) {
	dir := filepath.Join(c.workDir, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, nil
}

// eachConn runs fn once per connection, concurrently, and returns the
// first error.
func eachConn(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(i)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// loadLines sends the DDL on one connection, then the load lines striped
// across all of them, sampling the box's speed between lines.
func loadLines(exs []executor, ddl, load []string, speed *speedometer) error {
	for _, l := range ddl {
		if _, _, err := exs[0].exec(l, false); err != nil {
			return fmt.Errorf("%s: %w", clip(l), err)
		}
	}
	return eachConn(len(exs), func(i int) error {
		for j := i; j < len(load); j += len(exs) {
			if _, _, err := exs[i].exec(load[j], false); err != nil {
				return fmt.Errorf("%s: %w", clip(load[j]), err)
			}
			speed.tick()
		}
		return nil
	})
}

func dialAll(addr string, n int) ([]executor, error) {
	exs := make([]executor, n)
	for i := range exs {
		c, err := dial(addr)
		if err != nil {
			closeAll(exs[:i])
			return nil, err
		}
		exs[i] = c
	}
	return exs, nil
}

func closeAll(exs []executor) {
	for _, ex := range exs {
		ex.close()
	}
}

// warmUp brings a freshly opened stack to its steady state: one statement
// of every class, checked against the oracle (this is where the proxy
// adjusts onions), then warm statements of the mix per connection.
func warmUp(ws []*worker, orc *oracle, warm int) error {
	if err := classCheck(ws[0], orc); err != nil {
		return err
	}
	drive(ws, warm, 0, false)
	return firstFailure(ws)
}

func firstFailure(ws []*worker) error {
	for _, w := range ws {
		if w.firstErr != nil {
			return w.firstErr
		}
	}
	return nil
}

// setUp is server start + DDL + load + graceful stop + reopen + warm-up on
// the fresh directory r.dir. It returns the running server, with the
// warmed-up workers connected to it in r.workers.
func (r *tcpRun) setUp(c runCfg, w workload, m *mix) (*server, *oracle, error) {
	// The oracle is the benchmark's, not the system's: built off the clock.
	orc, err := newOracle(m.ddl, r.load)
	if err != nil {
		return nil, nil, err
	}
	start := time.Now()
	var phases []string
	lap := start
	phase := func(name string) {
		phases = append(phases, fmt.Sprintf("%s %.2f", name, time.Since(lap).Seconds()))
		lap = time.Now()
	}
	srv, err := startServer(c.bin, w.serverArgs(r.dir))
	if err != nil {
		return nil, nil, err
	}
	phase("start")
	exs, err := dialAll(srv.addr, c.nconn)
	if err == nil {
		err = loadLines(exs, m.ddl, r.load, r.speed)
		closeAll(exs)
	}
	phase("ddl+load")
	if err != nil {
		srv.kill()
		return nil, nil, fmt.Errorf("load: %w", err)
	}
	if err := srv.stop(); err != nil {
		return nil, nil, err
	}
	if r.dirBytes, err = dirBytes(r.dir, "proxy-keys.json", "LOCK"); err != nil {
		return nil, nil, err
	}
	phase("stop")

	if srv, err = startServer(c.bin, w.serverArgs(r.dir)); err != nil {
		return nil, nil, err
	}
	phase("reopen")
	exs, err = dialAll(srv.addr, c.nconn)
	if err != nil {
		srv.kill()
		return nil, nil, err
	}
	ws := make([]*worker, c.nconn)
	for i := range ws {
		ws[i] = newWorker(exs[i], m.stream(c.seed, i, c.nconn), m, orc)
		ws[i].speed = r.speed
	}
	if err := warmUp(ws, orc, c.warm); err != nil {
		closeAll(exs)
		srv.kill()
		return nil, nil, fmt.Errorf("warm-up: %w", err)
	}
	phase("warm-up")
	r.setupS = time.Since(start).Seconds()
	r.setupSlow, _ = r.speed.slowdown(start, time.Now())
	fmt.Printf("# set-up, seconds: %s\n", strings.Join(phases, ", "))
	r.workers = ws
	return srv, orc, nil
}

// runTCP sets the workload up, drives the measured closed loop, then kills
// the server, reopens the directory and checks every acknowledged write.
func runTCP(c runCfg, w workload, m *mix) (*tcpRun, error) {
	r := &tcpRun{speed: &speedometer{}}
	r.load, r.plainBytes = m.load(c.seed)
	var err error
	if r.dir, err = c.dataDir(w.name); err != nil {
		return nil, err
	}
	srv, orc, err := r.setUp(c, w, m)
	if err != nil {
		return nil, err
	}

	cpu0, err := srv.cpuSeconds()
	if err != nil {
		srv.kill()
		return nil, err
	}
	from := time.Now()
	r.elapsed = drive(r.workers, 0, c.measure, true)
	r.slow, r.probes = r.speed.slowdown(from, time.Now())
	cpu1, err := srv.cpuSeconds()
	r.rssPeakMB = srv.rssPeakMB()
	r.serverLog = srv.logs.String()
	for _, wk := range r.workers {
		wk.ex.close()
	}
	// The load has stopped, so no statement is in flight: what was
	// acknowledged is exactly what was attempted and did not fail.
	srv.kill()
	if err != nil {
		return nil, err
	}
	r.cpuS = cpu1 - cpu0

	if srv, err = startServer(c.bin, w.serverArgs(r.dir)); err != nil {
		return nil, fmt.Errorf("reopen after kill -9: %w", err)
	}
	ex, err := dial(srv.addr)
	if err != nil {
		srv.kill()
		return nil, err
	}
	r.checkErr = verifyAfterCrash(ex, orc, r.workers)
	ex.close()
	if err := srv.stop(); err != nil {
		return nil, err
	}
	return r, nil
}
