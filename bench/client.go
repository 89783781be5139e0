package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io/fs"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is one cryptdb-server subprocess.
type server struct {
	cmd  *exec.Cmd
	addr string
	logs *tailBuffer
	done chan struct{} // closed when stderr is drained
}

var listenRE = regexp.MustCompile(`listening on (\S+)`)

// startServer launches bin on an ephemeral port and waits for its
// "listening on" log line, which carries the address.
func startServer(bin string, args []string) (*server, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	// However the benchmark ends (a signal, a panic, the driver's timeout),
	// the kernel kills the server with it: no run leaves one behind to serve
	// the next.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	s := &server{cmd: cmd, logs: &tailBuffer{}, done: make(chan struct{})}
	addrCh := make(chan string, 1)
	go func() {
		defer close(s.done)
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			s.logs.add(sc.Text())
			if m := listenRE.FindStringSubmatch(sc.Text()); m != nil && !sent {
				sent = true
				addrCh <- m[1]
			}
		}
		if !sent {
			close(addrCh)
		}
	}()
	select {
	case addr, ok := <-addrCh:
		if !ok {
			cmd.Wait() //nolint:errcheck // the log tail below says why it died
			return nil, fmt.Errorf("server exited before listening:\n%s", s.logs)
		}
		s.addr = addr
		return s, nil
	case <-time.After(60 * time.Second):
		s.kill()
		return nil, fmt.Errorf("server did not listen within 60s:\n%s", s.logs)
	}
}

// stop asks for a graceful shutdown and waits for the process to end; a
// server that does not end within a minute is killed.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.kill()
		return err
	}
	select {
	case <-s.done:
	case <-time.After(60 * time.Second):
		s.kill()
		return fmt.Errorf("server ignored SIGTERM for 60s and was killed:\n%s", s.logs)
	}
	if err := s.cmd.Wait(); err != nil {
		return fmt.Errorf("server shutdown: %w\n%s", err, s.logs)
	}
	return nil
}

// kill is kill -9: no flush, no goodbye. The data directory keeps whatever
// the process had written.
func (s *server) kill() {
	s.cmd.Process.Kill() //nolint:errcheck // already dead is fine
	<-s.done
	s.cmd.Wait() //nolint:errcheck // killed: the exit status is the signal
}

// cpuSeconds is the server's user+system CPU so far, from /proc/<pid>/stat.
func (s *server) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line, 12 and 13 after the name.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("unexpected /proc stat line %q", b)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected /proc stat line %q", b)
	}
	const clockTick = 100 // USER_HZ on every Linux this runs on
	return (ut + st) / clockTick, nil
}

// rssPeakMB is the server's peak resident set (VmHWM).
func (s *server) rssPeakMB() float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// tailBuffer keeps the last lines of the server's log for error messages.
type tailBuffer struct {
	mu    sync.Mutex
	lines []string
}

func (t *tailBuffer) add(line string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.lines) == 60 {
		t.lines = t.lines[1:]
	}
	t.lines = append(t.lines, line)
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.Join(t.lines, "\n")
}

// executor runs one protocol line. rows is filled only when wantRows is
// set (one tab-separated string per row); n is the OK count.
type executor interface {
	exec(line string, wantRows bool) (rows []string, n int, err error)
	close()
}

// tcpConn speaks the line protocol to a cryptdb-server.
type tcpConn struct {
	c net.Conn
	r *bufio.Reader
}

func dial(addr string) (*tcpConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &tcpConn{c: c, r: bufio.NewReaderSize(c, 1<<16)}, nil
}

// errReply is the server's ERR line, as opposed to a broken connection.
type errReply string

func (e errReply) Error() string { return "ERR " + string(e) }

func (t *tcpConn) exec(line string, wantRows bool) (rows []string, n int, err error) {
	if _, err := t.c.Write([]byte(line + "\n")); err != nil {
		return nil, 0, err
	}
	for {
		reply, err := t.r.ReadSlice('\n')
		if err != nil {
			return nil, 0, fmt.Errorf("connection dropped: %w", err)
		}
		reply = reply[:len(reply)-1]
		switch {
		case bytes.HasPrefix(reply, []byte("ROW ")):
			if wantRows {
				rows = append(rows, string(reply[4:]))
			}
		case bytes.HasPrefix(reply, []byte("OK ")):
			n, err := strconv.Atoi(string(reply[3:]))
			return rows, n, err
		case bytes.HasPrefix(reply, []byte("ERR ")):
			return nil, 0, errReply(reply[4:])
		default:
			return nil, 0, fmt.Errorf("unexpected reply %q", reply)
		}
	}
}

func (t *tcpConn) close() { t.c.Close() }

// dirBytes sums the regular files under dir, skipping the names in skip.
func dirBytes(dir string, skip ...string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		for _, s := range skip {
			if d.Name() == s {
				return nil
			}
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// fsType names the filesystem holding path, from /proc/mounts (longest
// mount-point prefix wins).
func fsType(path string) string {
	abs, err := filepath.Abs(path)
	if err != nil {
		return "unknown"
	}
	b, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := "", "unknown"
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, typ = mp, f[2]
		}
	}
	return typ
}
